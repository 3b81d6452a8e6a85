"""Period lattices, action coordinates, and monodromy from period frames.

The names below are exported lazily (PEP 562): reading one imports its
submodule, and every read looks the name up on the submodule again, so a
replaced submodule attribute (a monkeypatch, a tracing wrapper) is what
the package returns.
"""

import importlib

_EXPORTS = {
    "PeriodFrame": "frames",
    "closed_form_frame": "frames",
    "closedness_defect": "frames",
    "frame_report": "frames",
    "monodromy_from_frame": "monodromy",
    "monodromy_report": "monodromy",
    "numeric_periods": "numeric",
    "numeric_report": "numeric",
    "action_chart": "extension",
    "action_extension_check": "extension",
    "extension_report": "extension",
    "positive_a0": "extension",
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
