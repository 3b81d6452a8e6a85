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

One table, ``_SCALARS``, maps the exact types ``str``, ``int`` and
``float`` to their writers.  A list or tuple whose first element has one
of them is written in one comprehension through the table; at the first
element of any other type (``bool``, ``None``, a numpy scalar, a
subclass, a container) the list is written element by element by the
walk instead, so the text and the first error are those of the walk.
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


#: writers of the exact scalar types, which need no walk
_SCALARS = {str: _string, int: _int, float: _number}


def _encode(obj, newline: str) -> str:
    """JSON text of ``obj`` whose closing bracket follows ``newline``."""
    kind = type(obj)
    write = _SCALARS.get(kind)
    if write is not None:
        return write(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        items = None
        if type(obj[0]) in _SCALARS:
            try:
                items = [_SCALARS[type(v)](v) for v in obj]
            except KeyError:  # an element of another type: walk them all
                pass
        if items is None:
            items = [_encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        if not all(type(k) is str for k in obj):
            obj = {str(k): v for k, v in obj.items()}
        inner = newline + "  "
        items = [_string(k) + ": " + _encode(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    # subclasses and foreign types, in the order their reduction tests them
    if isinstance(obj, dict):
        return _encode({str(k): v for k, v in obj.items()}, newline)
    if isinstance(obj, (list, tuple)):
        return _encode(list(obj), newline)
    if isinstance(obj, Fraction):
        return _string(str(obj))
    if hasattr(obj, "tolist"):
        return _encode(obj.tolist(), newline)
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return _int(obj)
    if isinstance(obj, float):
        return _number(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} "
                    "is not JSON serializable")


def canonical_json(report: dict) -> str:
    return _encode(report, "\n") + "\n"


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
