"""Canonical report serialization and side artifacts (CSV, SVG, DOT).

JSON is the single source-of-truth report format: keys sorted, two-space
indent, a trailing newline, and every value reduced to plain Python
scalars, so identical runs produce byte-identical files.  A non-finite
float is not JSON: serializing one raises ``ValueError``.
"""

from __future__ import annotations

import json
from fractions import Fraction


def sanitize(obj):
    """Reduce numpy scalars/arrays and Fractions to plain JSON values.

    numpy is never imported here: anything with ``tolist()`` (arrays and
    numpy scalars alike) is reduced through it to plain Python values.
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "tolist"):
        return sanitize(obj.tolist())
    return obj


def canonical_json(report: dict) -> str:
    return json.dumps(sanitize(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


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
