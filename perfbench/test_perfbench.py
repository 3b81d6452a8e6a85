"""Self-tests of the benchmark's own pieces: seeded inputs, span arithmetic
and the oracle.  Run with ``python -m pytest perfbench``."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_metric_lists_match_benchmark_json():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ----------------------------------------------------------------------
# seeded generators
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.IN_PROCESS))
def test_inputs_repeat_for_a_seed(name):
    wl = workloads.IN_PROCESS[name]()
    a, b, other = wl.inputs(11), wl.inputs(11), wl.inputs(12)
    assert repr(a) == repr(b)
    assert repr(a) != repr(other)


def test_numeric_arrays_repeat_bitwise():
    wl = workloads.Numeric()
    a, b = wl.inputs(3), wl.inputs(3)
    for mid in a["poisson"]:
        assert np.array_equal(a["poisson"][mid], b["poisson"][mid])
    assert np.array_equal(a["twist"], b["twist"])


def test_cli_commands_repeat_for_a_seed():
    assert workloads.cli_commands(5) == workloads.cli_commands(5)
    assert workloads.cli_commands(5) != workloads.cli_commands(6)
    assert len(workloads.cli_commands(5)) == len(workloads.README_COMMANDS)


def test_conjugacy_problems_have_witnesses_inside_the_bound():
    problems = workloads.conjugacy_problems(random.Random(3))
    assert len({(src, tgt) for _, src, tgt, _ in problems}) == len(problems)
    for kind, src, tgt, witness in problems:
        assert src != tgt
        if kind == "control":
            assert witness is None
        else:
            assert oracle.sup_norm(witness) <= 3
            assert oracle.check_conjugator(src, tgt, witness) is None


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def test_self_time_of_nested_spans():
    s = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 6.0, 0, 0],
    ]
    assert spans.self_times(s) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    s = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 3.0, 6.0, 0, 0],
         ["d", 9.0, 12.0, 0, 0]]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_pass_slice_and_layer_busy_time():
    s = [["zlat.conj", 0.0, 1.0, -1, 0],
         ["topo.validate", 1.0, 5.0, -1, 1],
         ["zlat.conj", 2.0, 3.5, 1, 1],
         ["polybase.build_k3_graph", 5.0, 5.5, -1, 1],
         ["polybase.json.graph_to_json", 5.5, 5.75, -1, 1]]
    part = spans.pass_spans(s, 1, len(s))
    assert part[1][3] == 0
    m = spans.layer_metrics(part, {"zlat.conj.found": 1, "topo.validate.items": 7})
    assert m["topo.validate.busy_s"] == pytest.approx(2.5)
    assert m["zlat.conj.busy_s"] == pytest.approx(1.5)
    assert m["zlat.conj.calls"] == 1 and m["zlat.conj.found_ratio"] == 1.0
    assert m["polybase.busy_s"] == pytest.approx(0.5)
    assert m["polybase.json_busy_s"] == pytest.approx(0.25)
    assert m["topo.validate.items"] == 7
    assert m["numerics.busy_s"] == 0.0


def test_installed_wrappers_record_nesting_and_restore():
    from tfib import topo, zlat
    original = zlat.simultaneous_conjugator
    rec = spans.install(spans.Recorder())
    try:
        assert zlat.simultaneous_conjugator is not original
        zlat._conjugator_cached.cache_clear()
        zlat.conjugator(zlat.T_GENERIC, zlat.T_GENERIC)
        topo.sign_from_triple(zlat.NEGATIVE_TRIPLE)
    finally:
        spans.uninstall(rec)
    assert zlat.simultaneous_conjugator is original
    names = [sp[0] for sp in rec.spans]
    assert names == ["zlat.conj", "topo.sign_from_triple"]
    assert rec.counts["zlat.conj.found"] == 1


def test_pass_statistics():
    assert run.lower_quartile([4.0, 1.0, 3.0, 2.0, 5.0]) == 2.0
    assert run.lower_quartile([7.0]) == 7.0
    # three passes of three ops: means 2, 3 and 10
    assert run.typical_op_s([[1.0, 3.0, 2.0], [1.0, 6.0, 2.0],
                             [10.0, 10.0, 10.0]]) == pytest.approx(2.5)


def test_host_speed_scales_to_the_reference_kernel_time():
    speed = run.HostSpeed()
    speed.samples = [2 * run.REFERENCE_KERNEL_S] * 3 + [9.0]
    assert speed.factor == pytest.approx(0.5)
    assert run.reference_kernel() > 0


def test_import_time_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        700 | scipy.integrate",
        "import time:        50 |         50 | json",
    ])
    total, scipy = run.import_times(text)
    assert total == pytest.approx(750e-6)
    assert scipy == pytest.approx(700e-6)


# ----------------------------------------------------------------------
# the oracle rejects wrong answers
# ----------------------------------------------------------------------

def _one_pass(wl):
    from tfib import report
    tally = oracle.Tally()
    _, _, text, outputs = run.run_pass(wl, report)
    run.check_pass(wl, outputs, text, None, tally)
    return tally


def test_corrupted_conjugator_is_rejected():
    kind, src, tgt, w = workloads.conjugacy_problems(random.Random(1))[0]
    assert oracle.check_conjugator(src, tgt, w) is None
    bad = (tuple(v + 1 for v in w[0]),) + w[1:]
    assert oracle.check_conjugator(src, tgt, bad) is not None
    assert oracle.check_none(w) is not None


def test_wrong_conjugators_raise_fail_ratio(monkeypatch):
    from tfib import zlat
    wl = workloads.ExactAtlas().setup(2)
    monkeypatch.setattr(zlat, "simultaneous_conjugator",
                        lambda sources, targets, bound=3: ((2, 1, 0), (1, 1, 0), (0, 0, 1)))
    tally = _one_pass(wl)
    assert tally.fail_ratio > 0


def test_flipped_seam_integral_raises_fail_ratio(monkeypatch):
    from tfib import germs
    wl = workloads.Numeric().setup(2)
    wl.ops = [op for op in wl.ops if op.label.startswith("seam.")]
    monkeypatch.setattr(
        germs, "integral_condition",
        lambda seq, expected, base=None, tol=1e-6: germs.IntegralReport(
            np.array([0.0 if base < 0 else 1.0]), np.asarray(expected, float), tol))
    tally = _one_pass(wl)
    assert (tally.failed, tally.attempted) == (2, 2)


def test_cli_check_rejects_a_wrong_seam_and_a_wrong_holonomy(tmp_path):
    ell1 = ["germs", "ell1", "--case", "ff"]
    assert workloads.check_cli(ell1, {"lower_seam_integral": [1.0]}, tmp_path) == [None]
    assert workloads.check_cli(ell1, {"lower_seam_integral": [0.0]}, tmp_path)[0]
    hol = ["base", "holonomy", "--input", "atlas.json", "--loop", "g1"]
    assert workloads.check_cli(hol, {"holonomy": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                               tmp_path)[0]
