"""Canonical report serialization and side artifacts (CSV, SVG, DOT).

JSON is the single source-of-truth report format: keys sorted, two-space
indent, a trailing newline, so identical runs produce byte-identical
files.  ``canonical_json`` writes it in one recursive walk: a numpy array
or scalar (anything with ``tolist()``) is written as its ``tolist()``
value, a Fraction as its string and a non-string key as ``str(key)``, and
the text is what ``json.dumps(..., sort_keys=True, indent=2,
allow_nan=False)`` writes for the report so reduced.  There is no
separate reduction pass (``sanitize`` is gone): with ``indent`` set,
``json`` runs its pure-Python encoder, after a pass that copied the whole
report.  A non-finite float is not JSON and raises ``ValueError``; any
other unsupported object raises ``TypeError``.

Reports share immutable values: a validation report hands every item the
one conjugator tuple that ``zlat`` returns for its question.  Each call
keeps a memo from ``(id(t), newline)`` to ``(t, text)`` for the tuples it
has written, and a tuple met again at the same indent reuses its text.
This is safe because a tuple's items cannot be replaced, and each entry
holds its tuple for the whole call, so no id is reused while the memo
lives.

Reports also repeat dict shapes: the 1650 items of a quintic validation
share one key set.  The same memo maps ``(keys, newline)``, the key tuple
in insertion order, to that shape's sorted keys, each with the text that
goes before its value (separator, indent, quoted key and ``": "``), so a
shape met again is neither sorted nor quoted again.  Only dicts whose keys
are all ``str`` are keyed so: ``(1,)``, ``(True,)`` and ``(1.0,)`` are
equal tuples whose keys print differently, so other keys are made strings
first.  A str, int, bool or None value is written in place, without a
recursive call.  The memo ends with the call, because a list inside a
tuple may change between calls, and so that it holds nothing once the
report is written.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

_int = int.__repr__
_float = float.__repr__
_INF = float("inf")


def _number(x: float) -> str:
    if x != x or x == _INF or x == -_INF:
        raise ValueError(
            "Out of range float values are not JSON compliant: " + repr(x))
    return _float(x)


def _encode(obj, newline: str, memo: dict) -> str:
    """JSON text of ``obj`` whose closing bracket follows ``newline``;
    ``memo`` maps ``(id(t), newline)`` of each tuple ``t`` already written
    in this call to ``(t, text)``, and ``(keys, newline)`` of each
    str-keyed dict shape to ``(inner indent, ((key, text before its
    value), ...) in sorted order)``."""
    kind = type(obj)
    if kind is str:
        return _string(obj)
    if kind is int:
        return _int(obj)
    if kind is float:
        return _number(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if kind is tuple:
            key = (id(obj), newline)
            seen = memo.get(key)
            if seen is not None:
                return seen[1]
        inner = newline + "  "
        first = type(obj[0])
        if first is int and all(type(v) is int for v in obj):
            items = map(_int, obj)
        elif first is str and all(type(v) is str for v in obj):
            items = map(_string, obj)
        else:
            items = [_encode(v, inner, memo) for v in obj]
        text = "[" + inner + ("," + inner).join(items) + newline + "]"
        if kind is tuple:
            memo[key] = (obj, text)
        return text
    if kind is dict:
        if not obj:
            return "{}"
        if not all(type(k) is str for k in obj):
            obj = {str(k): v for k, v in obj.items()}
        shape = (tuple(obj), newline)
        layout = memo.get(shape)
        if layout is None:
            inner = newline + "  "
            names = sorted(obj)
            heads = ["," + inner + _string(k) + ": " for k in names]
            heads[0] = "{" + heads[0][1:]
            layout = memo[shape] = (inner, tuple(zip(names, heads)))
        inner, fields = layout
        parts = []
        for k, head in fields:
            v = obj[k]
            vtype = type(v)
            if vtype is str:
                parts.append(head + _string(v))
            elif vtype is int:
                parts.append(head + _int(v))
            elif v is None:
                parts.append(head + "null")
            elif v is True:
                parts.append(head + "true")
            elif v is False:
                parts.append(head + "false")
            else:
                parts.append(head + _encode(v, inner, memo))
        parts.append(newline + "}")
        return "".join(parts)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    # subclasses and foreign types, in the order their reduction tests them
    if isinstance(obj, dict):
        return _encode({str(k): v for k, v in obj.items()}, newline, memo)
    if isinstance(obj, (list, tuple)):
        return _encode(list(obj), newline, memo)
    if isinstance(obj, Fraction):
        return _string(str(obj))
    if hasattr(obj, "tolist"):
        return _encode(obj.tolist(), newline, memo)
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return _int(obj)
    if isinstance(obj, float):
        return _number(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} "
                    "is not JSON serializable")


def canonical_json(report: dict) -> str:
    return _encode(report, "\n", {}) + "\n"


def write_csv(path, rows):
    """One line per row, values as ``repr(float)``, no header."""
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


#: SVG pixels per unit of log-modulus
PIXELS_PER_UNIT = 100.0


def raster_svg(raster):
    """SVG of an amoeba raster, at ``PIXELS_PER_UNIT``; filled cells
    merged into row runs."""
    x1, x2 = raster.grid()
    n1, n2 = raster.resolution
    dx = (raster.bounds[1] - raster.bounds[0]) / max(n1 - 1, 1)
    dy = (raster.bounds[3] - raster.bounds[2]) / max(n2 - 1, 1)
    s = PIXELS_PER_UNIT
    width = (raster.bounds[1] - raster.bounds[0]) * s
    height = (raster.bounds[3] - raster.bounds[2]) * s
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="white"/>',
    ]
    for i in range(n1):
        j = 0
        while j < n2:
            if not raster.mask[i, j]:
                j += 1
                continue
            j0 = j
            while j < n2 and raster.mask[i, j]:
                j += 1
            # x axis rightward, x2 axis upward
            px = (x1[i] - raster.bounds[0]) * s
            py = (raster.bounds[3] - x2[j - 1]) * s
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{dx * s:.2f}" '
                f'height="{(j - j0) * dy * s:.2f}" fill="black"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
