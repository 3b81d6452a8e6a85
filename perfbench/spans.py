"""In-memory spans around tfib's layers, installed from outside the program.

A ``Recorder`` keeps every span as ``[name, start, end, parent, pass_id]``
in a list and writes the list out once, at the end of a run.  ``install``
replaces the public functions of each tfib layer (and every other tfib
module attribute bound to the same function object, such as the names
``tfib.cli`` imports from ``tfib.periods``) with timing wrappers, so calls
that one layer makes into another are caught as nested spans.  Nothing in
``src/`` is edited; ``uninstall`` puts the original functions back.

Self time of a span is its duration minus the part of it covered by its
child spans; a layer's busy time is the sum of the self times of its
spans.  The per-layer metrics of the traced run are computed here from
the spans and counters of one pass.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, functions, span prefix).  A span is named "<prefix>.<function>".
PLAIN = [
    ("tfib.affine", ["build_local_model", "holonomy", "check_simple",
                     "check_cocycle", "base_to_json", "base_from_json"], "affine"),
    ("tfib.polybase", ["build_k3_graph", "build_quintic_graph", "classify_signs",
                       "legendre_dual", "localized_thickening"], "polybase"),
    ("tfib.polybase", ["graph_to_json", "graph_from_json", "graph_to_dot"],
     "polybase.json"),
    ("tfib.topo", ["canonical_assignment", "euler_characteristic",
                   "sign_from_triple"], "topo"),
    ("tfib.report", ["write_csv"], "report"),
    ("tfib.symplab.models", ["sample_domain"], "symplab"),
    ("tfib.symplab.poisson", ["poisson_check"], "symplab"),
    ("tfib.symplab.reduction", ["reduction_check"], "symplab"),
    ("tfib.symplab.twist", ["symplecticity_defect"], "symplab.twist"),
    ("tfib.symplab.amoeba", ["amoeba_raster"], "symplab"),
    ("tfib.symplab.discriminant", ["discriminant_sample"], "symplab"),
    ("tfib.symplab.smoothing", ["smoothing_one"], "symplab"),
    ("tfib.periods.frames", ["closed_form_frame", "closedness_defect"],
     "periods.frame"),
    ("tfib.periods.numeric", ["numeric_periods"], "periods"),
    ("tfib.periods.monodromy", ["monodromy_from_frame"], "periods"),
    ("tfib.periods.extension", ["positive_a0", "action_extension_check"],
     "periods"),
    ("tfib.germs", ["integral_condition", "cycle_integrals",
                    "negative_table_condition", "ell1_from_frames",
                    "is_fibrewise_constant", "deform_by_cutoff",
                    "glue_leg_germs"], "germs"),
    ("tfib.numerics", ["fd_step", "gradient", "jacobian", "c2r", "r2c",
                       "omega_matrix", "omega_pair", "smoothstep7", "cutoff",
                       "plateau", "thread_count", "parallel_map"], "numerics"),
]


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.pass_id = 0
        self._stack = []
        self._patched = []

    def open(self, name):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result`` sees each result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counting(self, key, fn):
        """``fn`` with every call counted under ``key`` (no span)."""

        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return proxy

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ----------------------------------------------------------------------
# wrappers with layer-specific bookkeeping
# ----------------------------------------------------------------------

def _conjugator(rec, fn):
    def found(result):
        rec.counts["zlat.conj.found"] += result is not None
    return rec.wrap("zlat.conj", fn, found)


def _validate(rec, fn):
    def items(report):
        rec.counts["topo.validate.items"] += len(report.items)
    return rec.wrap("topo.validate", fn, items)


def _serializer(name):
    def make(rec, fn):
        def size(text):
            rec.counts["report.bytes"] += len(text)
        return rec.wrap(name, fn, size)
    return make


def _make_model(rec, fn):
    """Models whose map ``f`` counts its calls."""

    def build(*args, **kwargs):
        model = fn(*args, **kwargs)
        model.f = rec.counting("symplab.model_f.calls", model.f)
        return model

    return rec.wrap("symplab.make_model", functools.wraps(fn)(build))


def _hamiltonian_twist(rec, fn):
    """Flows whose Hamiltonian (and its analytic gradient) count calls, and
    whose evaluation is a span of its own."""

    def twist(h, *args, **kwargs):
        counted = rec.counting("symplab.twist.ham_calls", h)
        grad = getattr(h, "grad", None)
        if grad is not None:
            counted.grad = rec.counting("symplab.twist.ham_calls", grad)
        return rec.wrap("symplab.twist.flow", fn(counted, *args, **kwargs))

    return rec.wrap("symplab.twist.hamiltonian_twist", functools.wraps(fn)(twist))


def _seam_sequence(rec, fn):
    """Stitched focus-focus sequences whose l_1 coefficients are spans."""

    def build(*args, **kwargs):
        seq = fn(*args, **kwargs)
        terms = {k: [rec.wrap("germs.seam", a) for a in v]
                 for k, v in seq.terms.items()}
        return dataclasses.replace(seq, terms=terms)

    return rec.wrap("germs.stitched_ff_ell1_sequence", functools.wraps(fn)(build))


SPECIAL = [
    ("tfib.zlat", "simultaneous_conjugator", _conjugator),
    ("tfib.topo", "validate_semistable", _validate),
    ("tfib.report", "canonical_json", _serializer("report.canonical_json")),
    ("tfib.report", "raster_svg", _serializer("report.raster_svg")),
    ("tfib.symplab.models", "make_model", _make_model),
    ("tfib.symplab.twist", "hamiltonian_twist", _hamiltonian_twist),
    ("tfib.germs", "stitched_ff_ell1_sequence", _seam_sequence),
]


def install(rec: Recorder):
    """Wrap every layer function listed above; returns ``rec``."""
    replacements = {}
    for mod_name, names, prefix in PLAIN:
        module = importlib.import_module(mod_name)
        for name in names:
            fn = getattr(module, name)
            replacements[id(fn)] = (fn, rec.wrap(f"{prefix}.{name}", fn))
    for mod_name, name, make in SPECIAL:
        fn = getattr(importlib.import_module(mod_name), name)
        replacements[id(fn)] = (fn, make(rec, fn))
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "tfib" or mod_name.startswith("tfib.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                rec._patched.append((module, attr, value))
                setattr(module, attr, hit[1])
    return rec


def uninstall(rec: Recorder):
    for module, attr, original in reversed(rec._patched):
        setattr(module, attr, original)
    rec._patched.clear()


# ----------------------------------------------------------------------
# self time and per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def pass_spans(spans, start, stop):
    """The spans recorded in ``spans[start:stop]`` (one pass), with parent
    indices rebased onto the slice; spans of a pass only nest in each other."""
    return [[name, s, e, parent - start if parent >= start else -1, p]
            for name, s, e, parent, p in spans[start:stop]]


def layer_table(spans):
    """{span name: [calls, total_s, self_s]} over the given spans."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return dict(table)


# per-layer busy metrics: name -> span-name prefixes (a prefix matches the
# name itself or the name followed by ".")
BUSY = {
    "cli.busy_s": ["cli.main"],
    "zlat.conj.busy_s": ["zlat.conj"],
    "affine.busy_s": ["affine"],
    "polybase.busy_s": ["polybase"],
    "polybase.json_busy_s": ["polybase.json"],
    "topo.validate.busy_s": ["topo.validate"],
    "symplab.poisson.busy_s": ["symplab.poisson_check"],
    "symplab.reduction.busy_s": ["symplab.reduction_check"],
    "symplab.twist.busy_s": ["symplab.twist"],
    "periods.numeric.busy_s": ["periods.numeric_periods"],
    "periods.a0.busy_s": ["periods.positive_a0"],
    "periods.extend.busy_s": ["periods.action_extension_check"],
    "periods.monodromy.busy_s": ["periods.monodromy_from_frame"],
    "germs.seam.busy_s": ["germs.seam"],
    "numerics.busy_s": ["numerics"],
    "report.busy_s": ["report"],
}

# prefixes excluded from a busy metric although they match it
BUSY_EXCLUDE = {"polybase.busy_s": ["polybase.json"]}


def _matches(name, prefixes):
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def layer_metrics(spans, counts):
    """Per-layer metrics of one pass from its spans and counters."""
    table = layer_table(spans)
    out = {}
    for metric, prefixes in BUSY.items():
        skip = BUSY_EXCLUDE.get(metric, [])
        out[metric] = sum(row[2] for name, row in table.items()
                          if _matches(name, prefixes) and not _matches(name, skip))
    calls = table.get("zlat.conj", [0])[0]
    out["zlat.conj.calls"] = calls
    out["zlat.conj.found_ratio"] = counts.get("zlat.conj.found", 0) / calls if calls else 0.0
    out["affine.holonomy.calls"] = table.get("affine.holonomy", [0])[0]
    for key in ("zlat.conj.cache_misses", "topo.validate.items", "symplab.model_f.calls",
                "symplab.twist.ham_calls", "report.bytes"):
        out[key] = counts.get(key, 0)
    return out
