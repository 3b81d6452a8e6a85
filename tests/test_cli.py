"""CLI surface: subcommands, artifacts, exit codes, reproducibility."""

import argparse
import ast
import gc
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfib import affine, cli, numerics, symplab, zlat


def run(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data, out


def test_graph_k3(tmp_path):
    code, data, _ = run(tmp_path, "graph", "k3", "--strict")
    assert code == 0 and data["passed"] is True
    assert data["vertices"] == 24
    assert data["euler"] == 24


def test_graph_quintic_counts(tmp_path):
    code, data, out = run(tmp_path, "graph", "quintic")
    assert code == 0
    assert data["positive"] == 50
    assert data["negative"] == 250
    assert data["euler"] == -200
    assert data["edges"] == 450
    assert data["components"] == 1
    assert out.with_suffix(".dot").exists()


def test_graph_quintic_dual_and_thicken(tmp_path):
    code, data, _ = run(tmp_path, "graph", "quintic", "--dual")
    assert code == 0 and data["euler"] == 200
    code, data, _ = run(tmp_path, "graph", "quintic", "--thicken", "1/10")
    assert code == 0 and data["thickened"] == 250 and data["euler"] == -200


def test_topo_euler_from_file(tmp_path):
    _, _, out = run(tmp_path, "graph", "k3", name="k3.json")
    code, data, _ = run(tmp_path, "topo", "euler", "--input", str(out))
    assert code == 0 and data["euler"] == 24 and data["dimension"] == 2


def test_topo_sign(tmp_path):
    triple = json.dumps([list(map(list, m)) for m in zlat.NEGATIVE_TRIPLE])
    code, data, _ = run(tmp_path, "topo", "sign", "--triple", triple)
    assert code == 0 and data["sign"] == "negative" and data["passed"] is True
    assert data["conjugator"] == [list(r) for r in zlat.identity(3)]
    assert "bound" not in data


def test_topo_sign_finds_the_conjugator_of_a_conjugated_positive_triple(tmp_path):
    q = zlat.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    conj = [zlat.mat_mul(zlat.mat_mul(q, t), zlat.inverse(q)) for t in zlat.POSITIVE_TRIPLE]
    code, data, _ = run(tmp_path, "topo", "sign", "--triple",
                        json.dumps([list(map(list, m)) for m in conj]), "--strict")
    assert code == 0 and data["sign"] == "positive" and data["passed"] is True
    p = zlat.mat(data["conjugator"])
    assert [zlat.mat_mul(zlat.mat_mul(zlat.inverse(p), t), p) for t in conj] \
        == list(zlat.POSITIVE_TRIPLE)


def test_topo_sign_fails_a_triple_not_conjugate_to_the_standard_one(tmp_path):
    # fixed space of dimension 1, so "negative"; but the Smith form of
    # T1 - I is (2, 0, 0), and no GL(3, Z) matrix takes it to a standard entry
    t1 = zlat.mat([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    t2 = zlat.mat([[1, 0, -1], [0, 1, 0], [0, 0, 1]])
    triple = [t1, t2, zlat.inverse(zlat.mat_mul(t1, t2))]
    text = json.dumps([list(map(list, m)) for m in triple])
    code, data, _ = run(tmp_path, "topo", "sign", "--triple", text)
    assert code == 0 and data["sign"] == "negative"
    assert data["passed"] is False and data["conjugator"] is None
    assert cli.main(["topo", "sign", "--triple", text, "--strict"]) == 1


def test_topo_sign_fails_the_index_3_negative_triple(tmp_path):
    """I + e_1 w_i^t with w = (0,1,1), (0,1,-2), (0,-2,1): the product is I,
    each member is conjugate to T_GENERIC and the fixed space is a line, so
    the sign is negative; but w_1, w_2, w_3 span a sublattice of index 3 in
    e_1^perp, where the standard triple's span all of it.  Conjugating by P
    takes the matrix W of rows w_i to +-W P, so the Smith forms of W would
    agree: null is a proof."""
    ws = [(0, 1, 1), (0, 1, -2), (0, -2, 1)]
    triple = [zlat.mat([[int(i == j) + (i == 0) * w[j] for j in range(3)] for i in range(3)])
              for w in ws]
    assert zlat.mat_mul(zlat.mat_mul(triple[0], triple[1]), triple[2]) == zlat.identity(3)
    assert all(zlat.conjugator(m, zlat.T_GENERIC) is not None for m in triple)
    code, data, _ = run(tmp_path, "topo", "sign", "--triple",
                        json.dumps([zlat.matrix_to_json(m) for m in triple]))
    assert code == 0 and data["sign"] == "negative"
    assert data["passed"] is False and data["conjugator"] is None

    def rows(mats):
        return zlat.mat([zlat.mat_sub(m, zlat.identity(3))[0] for m in mats])

    assert zlat.smith_invariants(rows(triple)) == (1, 3, 0)
    assert zlat.smith_invariants(rows(zlat.NEGATIVE_TRIPLE)) == (1, 1, 0)


def test_topo_sign_degenerate_is_usage_error(tmp_path):
    ident = json.dumps([list(map(list, zlat.identity(3)))] * 3)
    code = cli.main(["topo", "sign", "--triple", ident])
    assert code == 2


def test_base_roundtrip(tmp_path):
    code, atlas, out = run(tmp_path, "base", "build", "--kind", "negative",
                           name="atlas.json")
    assert code == 0 and len(atlas["charts"]) == 3
    code, data, _ = run(tmp_path, "base", "holonomy", "--input", str(out),
                        "--loop", "g1")
    assert code == 0
    assert data["holonomy"] == [list(r) for r in zlat.NEGATIVE_TRIPLE[0]]
    code, data, _ = run(tmp_path, "base", "check-simple", "--input", str(out))
    assert code == 0 and data["passed"]


def test_fib_poisson_strict_failure(tmp_path):
    code, data, _ = run(tmp_path, "fib", "poisson", "--model", "control",
                        "--samples", "50", "--strict")
    assert code == 1
    assert data["max_bracket"] >= 1e-2


def test_fib_poisson_pass(tmp_path):
    code, data, _ = run(tmp_path, "fib", "poisson", "--model", "sm_ff",
                        "--samples", "100", "--strict")
    assert code == 0 and data["passed"]
    assert data["step"] == numerics.DEFAULT_STEP


def test_periods_monodromy_by_model(tmp_path):
    code, data, _ = run(tmp_path, "periods", "monodromy", "--model", "sm_ff",
                        "--loop", "circle:0.5")
    assert code == 0
    assert data["monodromy"] == [[1, 0], [1, 1]]


def test_reports_show_the_library_tolerances(tmp_path):
    from tfib.symplab import twist

    code, data, _ = run(tmp_path, "fib", "twist", "--samples", "5")
    assert code == 0 and data["tol"] == twist.TWIST_TOL


@pytest.mark.parametrize("key, value", [("numeric", True),
                                        ("translation", [0.0, 0.0, 0.0])])
def test_atlas_with_a_float_translation_is_a_usage_error(tmp_path, capsys, key, value):
    _, atlas, out = run(tmp_path, "base", "build", "--kind", "negative",
                        name="atlas.json")
    atlas["pieces"][0]["transition"][key] = value
    out.write_text(json.dumps(atlas))
    capsys.readouterr()
    code, data, _ = run(tmp_path, "base", "holonomy", "--input", str(out),
                        "--loop", "g1")
    assert code == 2 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_usage_error():
    assert cli.main(["fib", "poisson", "--model", "does-not-exist"]) == 2
    assert cli.main(["nonsense"]) == 2


def test_reports_embed_config(tmp_path):
    from tfib.symplab import reduction

    code, data, _ = run(tmp_path, "fib", "reduce-check", "--t", "0.5",
                        "--samples", "20", "--seed", "3")
    assert code == 0
    assert data["config"] == {"samples": 20, "seed": 3, "strict": False}
    assert data["tol"] == reduction.REDUCTION_TOL


def test_byte_identical_reports(tmp_path):
    argv = ["fib", "poisson", "--model", "generic", "--samples", "150",
            "--seed", "11"]
    _, _, out1 = run(tmp_path, *argv, name="a.json")
    _, _, out2 = run(tmp_path, *argv, name="b.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_amoeba_artifacts(tmp_path):
    code, data, out = run(tmp_path, "fib", "amoeba", "--res", "60")
    assert code == 0 and data["passed"]
    svg = out.with_suffix(".svg").read_text()
    assert svg.startswith("<svg") and "rect" in svg
    assert out.with_suffix(".csv").exists()


def test_amoeba_oracle_rejects_a_flipped_cell(tmp_path, monkeypatch):
    # patch the submodule attribute: undoing a patch of the package
    # attribute would leave a global that shadows the lazy ``__getattr__``
    real = symplab.amoeba_raster

    def flipped(*a, **kw):
        raster = real(*a, **kw)
        raster.mask[0, 0] = not raster.mask[0, 0]
        return raster

    monkeypatch.setattr("tfib.symplab.amoeba.amoeba_raster", flipped)
    code, data, _ = run(tmp_path, "fib", "amoeba", "--res", "60", "--strict")
    assert code == 1 and data["passed"] is False


def test_discriminant_leg_strict_passes(tmp_path):
    code, data, _ = run(tmp_path, "fib", "discriminant", "--model", "leg_h",
                        "--strict")
    assert code == 0 and data["inside_oracle_amoeba"] is False
    assert data["passed"] is True


def test_discriminant_strict_rejects_a_shifted_cloud(tmp_path, monkeypatch):
    real = symplab.discriminant_sample
    monkeypatch.setattr("tfib.symplab.discriminant.discriminant_sample",
                        lambda model: real(model) + [0.0, 5.0, 0.0])
    code, data, _ = run(tmp_path, "fib", "discriminant", "--model",
                        "thin_legs", "--strict")
    assert code == 1 and data["inside_oracle_amoeba"] is False
    assert data["passed"] is False


def test_periods_frame_strict_rejects_a_curled_frame(tmp_path, monkeypatch):
    from test_periods import curled_frame

    monkeypatch.setattr("tfib.periods.frames.closed_form_frame",
                        lambda kind: curled_frame(3))
    code, data, _ = run(tmp_path, "periods", "frame", "--kind", "generic",
                        "--strict")
    assert code == 1 and data["passed"] is False
    assert data["closedness_defect"] > 0.5 and data["tol"] == 1e-6


@pytest.mark.parametrize("eps", [0.1, 1e-10, 1e-11, 1e-12])
def test_twist_strict_rejects_a_half_angle_cutoff(tmp_path, monkeypatch, eps):
    import test_symplab

    # H / 2 with its own flow: a consistent, symplectic twist, still the
    # identity where H = 0, so only the inside quarter-turn check sees it,
    # at every eps, since the flow error is in units of the point's radius
    bad = test_symplab._half_angle(eps, flow_too=True)
    monkeypatch.setattr("tfib.symplab.twist.cutoff_hamiltonian", lambda eps: bad)
    code, data, _ = run(tmp_path, "fib", "twist", "--which", "cutoff",
                        "--eps", str(eps), "--samples", "20", "--strict")
    assert code == 1 and data["passed"] is False
    assert data["flow_error"] > 0.01 and data["symplectic_defect"] < 1e-6
    assert data["integral_curve_defect"] < 1e-6


@pytest.mark.parametrize("mutant", ["radial_rotation", "flipped_phase", "half_angle_grad"])
def test_twist_strict_rejects_a_known_bad_twist(tmp_path, monkeypatch, mutant):
    import test_symplab

    bad = test_symplab.KNOWN_BAD[mutant](0.1)
    monkeypatch.setattr("tfib.symplab.twist.cutoff_hamiltonian", lambda eps: bad)
    code, data, _ = run(tmp_path, "fib", "twist", "--which", "cutoff",
                        "--samples", "20", "--strict")
    assert code == 1 and data["passed"] is False
    assert data["flow_error"] < 1e-6 and data["integral_curve_defect"] > 1e-6
    # a wrong phase is not symplectic; a wrong grad with H's flow is
    assert (data["symplectic_defect"] < 1e-6) is (mutant == "half_angle_grad")


def test_twist_cutoff_strict_passes(tmp_path):
    code, data, _ = run(tmp_path, "fib", "twist", "--which", "cutoff",
                        "--samples", "20", "--strict")
    assert code == 0 and data["passed"] is True and data["flow_error"] < 1e-9
    # both checks difference at the scale of the shell, sqrt(eps)
    for eps in ("1e-6", "1e-10"):
        code, data, _ = run(tmp_path, "fib", "twist", "--which", "cutoff",
                            "--eps", eps, "--samples", "20", "--strict")
        assert code == 0 and data["passed"] is True


def test_periods_frame_strict_passes(tmp_path):
    code, data, _ = run(tmp_path, "periods", "frame", "--kind", "positive",
                        "--strict")
    assert code == 0 and data["passed"] is True


def test_twist_flows_as_many_points_as_samples(tmp_path, monkeypatch):
    real = symplab.hamiltonian_twist
    shapes = []

    def recording(h):
        flow = real(h)

        def recorded(u):
            shapes.append(u.shape)
            return flow(u)

        recorded.hamiltonian = flow.hamiltonian
        return recorded

    monkeypatch.setattr("tfib.symplab.twist.hamiltonian_twist", recording)
    code, data, _ = run(tmp_path, "fib", "twist", "--samples", "120", "--strict")
    assert code == 0 and data["config"]["samples"] == 120
    assert shapes == [(120, 2)]


def test_smooth1_sigma_zero_strict_rejects_a_perturbed_profile(tmp_path, monkeypatch):
    from tfib.symplab.smoothing import SmoothedLeg

    code, data, _ = run(tmp_path, "fib", "smooth1", "--sigma", "zero", "--strict")
    assert code == 0 and data["passed"] is True
    real = SmoothedLeg.rho
    monkeypatch.setattr("tfib.symplab.smoothing.SmoothedLeg.rho",
                        lambda self, r, t, s: real(self, r, t, s) + 1e-12)
    code, data, _ = run(tmp_path, "fib", "smooth1", "--sigma", "zero", "--strict")
    assert code == 1 and data["passed"] is False


def test_strict_reads_a_numpy_false_verdict(tmp_path, monkeypatch):
    import numpy as np

    monkeypatch.setattr("tfib.germs.cycle_integrals", lambda *a, **kw: np.array([1.5]))
    code, data, _ = run(tmp_path, "germs", "deform", "--strict")
    assert code == 1 and data["passed"] is False


@pytest.mark.parametrize("case, m", [("equal", ["1", "0", "-3"]),
                                     ("fake", ["2", "-3"])])
def test_germs_ell1_checks_every_case(tmp_path, monkeypatch, case, m):
    from tfib import germs

    argv = ["germs", "ell1", "--case", case, "--m", *m, "--strict"]
    code, data, _ = run(tmp_path, *argv)
    assert code == 0 and data["passed"] is True
    assert data["expected"] == ([int(x) for x in m] if case == "fake" else [0] * len(m))
    real = germs.ell1_from_frames
    monkeypatch.setattr("tfib.germs.ell1_from_frames", lambda *a: [
        lambda p, c=c: c(p) + 1e-3 for c in real(*a)])
    code, data, _ = run(tmp_path, *argv)
    assert code == 1 and data["passed"] is False
    monkeypatch.setattr("tfib.germs.ELL1_TOL", 1e-2)
    code, data, _ = run(tmp_path, *argv)
    assert code == 0 and data["passed"] is True and data["tol"] == 1e-2


@pytest.mark.parametrize("argv, constant", [
    (["fib", "poisson", "--model", "sm_ff", "--samples", "30"],
     "tfib.symplab.poisson.POISSON_TOL"),
    (["fib", "reduce-check", "--t", "0.5", "--samples", "30"],
     "tfib.symplab.reduction.REDUCTION_TOL"),
    (["fib", "twist", "--samples", "5"], "tfib.symplab.twist.TWIST_TOL"),
    (["periods", "frame", "--kind", "generic"], "tfib.periods.frames.CLOSEDNESS_TOL"),
    (["germs", "ell1", "--case", "equal"], "tfib.germs.ELL1_TOL"),
    (["periods", "extend", "--chart", "generic"], "tfib.periods.extension.EXTEND_TOL"),
])
def test_reports_apply_and_state_the_layer_tolerance(tmp_path, monkeypatch, argv, constant):
    code, data, _ = run(tmp_path, *argv, "--strict")
    assert code == 0 and data["passed"] is True and "tol" not in data["config"]
    # no check value is below 0: the leaf reads its layer's one constant
    monkeypatch.setattr(constant, 0.0)
    code, data, _ = run(tmp_path, *argv, "--strict")
    assert code == 1 and data["passed"] is False and data["tol"] == 0.0


def test_reports_are_the_layer_bodies(tmp_path):
    from tfib import germs, periods, report

    cases = [
        (["fib", "twist", "--samples", "5", "--seed", "2"],
         lambda: symplab.twist_report("h0", None, 5, 2)),
        (["periods", "frame", "--kind", "positive", "--seed", "4"],
         lambda: periods.frame_report("positive", 4)),
        (["germs", "ell1", "--case", "fake", "--m", "2", "-1"],
         lambda: germs.ell1_report("fake", [2, -1])),
    ]
    for argv, call in cases:
        code, data, _ = run(tmp_path, *argv)
        del data["config"]
        assert code == 0 and data == json.loads(report.canonical_json(call()))


def test_germs_constant_strict_rejects_a_flipped_detector(tmp_path, monkeypatch):
    from tfib import germs

    for case in ("fake", "wavy"):
        code, data, _ = run(tmp_path, "germs", "constant", "--case", case, "--strict")
        assert code == 0 and data["passed"] is True
        assert data["fibrewise_constant"] is data["expected"] is (case == "fake")
    real = germs.is_fibrewise_constant
    monkeypatch.setattr("tfib.germs.is_fibrewise_constant", lambda seq: not real(seq))
    for case in ("fake", "wavy"):
        code, data, _ = run(tmp_path, "germs", "constant", "--case", case, "--strict")
        assert code == 1 and data["passed"] is False


@pytest.mark.parametrize("argv, target, mutate", [
    (["fib", "reduce-check", "--t", "0.5", "--samples", "50"],
     "tfib.symplab.reduction.gamma_t", lambda real: lambda u, t: 1.001 * real(u, t)),
    # a rho1 with a |t| kink at the seam
    (["fib", "smooth1", "--sigma", "one"],
     "tfib.symplab.smoothing.rho_one_smooth", lambda real: lambda r, t: real(r, t) + abs(t)),
    (["germs", "integral", "--case", "negative"],
     "tfib.germs.cycle_integrals", lambda real: lambda *a, **kw: real(*a, **kw) + 0.5),
])
def test_checked_leaves_strict_reject_a_mutant(tmp_path, monkeypatch, argv, target, mutate):
    code, data, _ = run(tmp_path, *argv, "--strict")
    assert code == 0 and data["passed"] is True
    module, name = target.rsplit(".", 1)
    monkeypatch.setattr(target, mutate(getattr(importlib.import_module(module), name)))
    code, data, _ = run(tmp_path, *argv, "--strict")
    assert code == 1 and data["passed"] is False


def test_smooth1_sigma_bump_reports_no_check(tmp_path):
    code, data, _ = run(tmp_path, "fib", "smooth1", "--sigma", "bump", "--strict")
    assert code == 0 and data["passed"] is None


def readme_commands():
    """The README's CLI examples, in order, as argv lists without ``tfib``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(ln, comments=True)[1:] for ln in block.splitlines()
            if ln.startswith("tfib ")]


# numpy's floating-point errors, at numpy's default levels whatever the
# process set before, are RuntimeWarnings, and errors here (whatever the
# pytest configuration): a leaf that divides by zero or takes a log of 0
# outside an errstate of its own fails this test
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 20
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with np.errstate(divide="warn", over="warn", invalid="warn"):
            code = cli.main(argv if "--strict" in argv else [*argv, "--strict"])
        text = capsys.readouterr().out
        if "--out" in argv:
            text = Path(argv[argv.index("--out") + 1]).read_text()
        passed = json.loads(text)["passed"]
        assert passed in (True, False, None), argv
        assert passed is not False and code == 0, argv


def _leaves():
    """[(command words, leaf parser)] for every leaf of the CLI."""
    out = []

    def walk(parser, words):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            out.append((words, parser))
        for name, child in (subs[0].choices.items() if subs else ()):
            walk(child, words + (name,))

    walk(cli._parser(), ())
    return out


def _layer_function(leaf):
    module, name = leaf.get_default("run").split(":")
    return getattr(importlib.import_module(f"tfib.{module}"), name)


def test_every_leaf_option_is_a_parameter_of_its_layer_function():
    assert len(_leaves()) == 24
    assert sum(1 for _, leaf in _leaves() for a in leaf._actions
               if a.option_strings and a.dest != "help") == 91
    for words, leaf in _leaves():
        dests = {a.dest for a in leaf._actions
                 if a.option_strings and a.dest not in ("help", "out", "strict")}
        extras = set(leaf._defaults) - {"run"}
        params = set(inspect.signature(_layer_function(leaf)).parameters)
        assert dests | extras == params, words


#: every leaf's options but --out and --strict, which every leaf takes: an
#: option added to or removed from the CLI shows as an edit of this ledger
OPTION_LEDGER = {
    "base build": ["--kind", "--tau"],
    "base check-simple": ["--input", "--kind", "--tau"],
    "base holonomy": ["--input", "--kind", "--loop", "--word"],
    "graph k3": ["--dual"],
    "graph quintic": ["--dual", "--thicken"],
    "topo euler": ["--input"],
    "topo validate": ["--input"],
    "topo sign": ["--triple"],
    "fib list": [],
    "fib poisson": ["--model", "--samples", "--seed"],
    "fib reduce-check": ["--samples", "--seed", "--t"],
    "fib amoeba": ["--bounds", "--res"],
    "fib discriminant": ["--model"],
    "fib twist": ["--eps", "--samples", "--seed", "--which"],
    "fib smooth1": ["--seed", "--sigma"],
    "periods frame": ["--kind", "--seed"],
    "periods numeric": ["--b", "--model"],
    "periods monodromy": ["--frame", "--loop", "--model"],
    "periods extend": ["--chart", "--t0"],
    "germs ell1": ["--case", "--m"],
    "germs integral": ["--case"],
    "germs constant": ["--case"],
    "germs deform": [],
    "germs glue": [],
}


def test_cli_options_match_the_ledger():
    found = {(" ".join(words), option) for words, leaf in _leaves()
             for action in leaf._actions for option in action.option_strings
             if option not in ("-h", "--help")}
    assert found == {(leaf, option) for leaf, options in OPTION_LEDGER.items()
                     for option in ["--out", "--strict", *options]}


def test_cli_defines_no_handler():
    """Only the dispatch helper takes the parsed ``args``."""
    tree = ast.parse(Path(cli.__file__).read_text())
    takes_args = sorted(node.name for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and "args" in [a.arg for a in node.args.args])
    assert takes_args == ["_call"]


@pytest.mark.parametrize("argv", [
    ["graph", "k3", "--seed", "3"],
    ["fib", "list", "--samples", "10"],
    ["fib", "smooth1", "--tol", "1e-3"],
    ["periods", "extend", "--chart", "generic", "--seed", "1"],
    ["fib", "poisson", "--model", "sm_ff", "--tol", "1e-3"],
    ["fib", "reduce-check", "--t", "0.5", "--tol", "1e-3"],
    ["fib", "twist", "--tol", "1e-3"],
    ["periods", "frame", "--kind", "generic", "--tol", "1e-3"],
    ["germs", "ell1", "--tol", "1e-3"],
    ["periods", "extend", "--chart", "generic", "--tol", "1e-3"],
    # options that each leaf reads at one value only
    ["base", "check-simple", "--kind", "edge", "--bound", "3"],
    ["topo", "validate", "--input", "k3.json", "--bound", "3"],
    ["topo", "euler", "--input", "k3.json", "--dimension", "2"],
    ["fib", "poisson", "--model", "sm_ff", "--samples", "5", "--step", "1e-4"],
    ["fib", "poisson", "--model", "sm_ff", "--samples", "5", "--margin", "0.1"],
    ["fib", "amoeba", "--res", "5", "--px-per-unit", "100"],
    ["fib", "discriminant", "--model", "thin_legs", "--eps", "0.1"],
    ["fib", "discriminant", "--model", "thin_legs", "--M", "4"],
    ["fib", "smooth1", "--eps", "0.1"],
    ["periods", "numeric", "--model", "generic", "--b", "0.1,0.3,-0.2",
     "--cycles", "e3"],
    ["germs", "deform", "--rho", "0.5"],
])
def test_leaves_reject_options_they_do_not_read(tmp_path, monkeypatch, capsys, argv):
    # --input files are read while parsing: give the topo leaves a real one
    monkeypatch.chdir(tmp_path)
    cli.main(["graph", "k3", "--out", "k3.json"])
    capsys.readouterr()
    code, data, _ = run(tmp_path, *argv)
    assert code == 2 and data is None
    assert "unrecognized arguments" in capsys.readouterr().err


def test_germs_integral_cli(tmp_path):
    code, data, _ = run(tmp_path, "germs", "integral", "--case", "negative")
    assert code == 0 and data["passed"]


def test_topo_validate_cli(tmp_path):
    for dual in ([], ["--dual"]):
        _, _, out = run(tmp_path, "graph", "quintic", *dual, name="q.json")
        code, data, written = run(tmp_path, "topo", "validate", "--input", str(out),
                                  "--strict")
        assert code == 0 and data["passed"]
        assert len(data["items"]) == 1650 and len(data["questions"]) == 18
        assert written.stat().st_size < 100_000


def test_topo_validate_rejects_a_graph_without_edges(tmp_path, capsys):
    """The K3 graph has 24 nodes and no edges: a validation of it would
    hold no item and pass whatever its monodromy."""
    _, _, out = run(tmp_path, "graph", "k3", name="k3.json")
    capsys.readouterr()
    code, data, _ = run(tmp_path, "topo", "validate", "--input", str(out), "--strict")
    assert code == 2 and data is None
    assert capsys.readouterr().err == "error: graph has no edges; nothing to validate\n"


@pytest.mark.parametrize("leaf", ["validate", "euler"])
def test_topo_rejects_unsigned_trivalent_vertices(tmp_path, capsys, leaf):
    _, data, out = run(tmp_path, "graph", "quintic", name="q.json")
    doc = data["graph"]
    for v in doc["vertices"]:
        if v["valence"] == 3:
            v["sign"] = "unsigned"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code, data, _ = run(tmp_path, "topo", leaf, "--input", str(out), "--strict")
    assert code == 2 and data is None
    assert capsys.readouterr().err == (
        "error: unsigned trivalent vertices present; classify signs first\n")


def _without_edge_0(doc):
    """Edge 0 removed and its two ends' valences lowered to 2, so that the
    document agrees with itself."""
    edge = doc["edges"].pop(0)
    for i in (edge["a"], edge["b"]):
        doc["vertices"][i]["valence"] -= 1
    return min(edge["a"], edge["b"])


def _with_a_loop(doc):
    """Two edges i-a and i-b of the first negative vertex i replaced by a
    loop at i and an edge a-b: every valence stays 3, but i meets two
    edges."""
    i = _first(doc, "negative")
    ends = [j for j, e in enumerate(doc["edges"]) if i in (e["a"], e["b"])][:2]
    a, b = (doc["edges"][j]["b"] if doc["edges"][j]["a"] == i else doc["edges"][j]["a"]
            for j in ends)
    doc["edges"][ends[0]], doc["edges"][ends[1]] = {"a": i, "b": i}, {"a": a, "b": b}
    return i


@pytest.mark.parametrize("leaf", ["validate", "euler"])
@pytest.mark.parametrize("edit", [_without_edge_0, _with_a_loop])
def test_topo_rejects_a_signed_vertex_that_is_not_trivalent(tmp_path, capsys, leaf, edit):
    _, data, out = run(tmp_path, "graph", "quintic", name="q.json")
    doc = data["graph"]
    i = edit(doc)
    assert doc["vertices"][i]["sign"] in ("positive", "negative")
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code, data, _ = run(tmp_path, "topo", leaf, "--input", str(out), "--strict")
    assert code == 2 and data is None
    assert capsys.readouterr().err == f"error: signed vertex {i} is not trivalent\n"


def _first(doc, sign):
    return next(i for i, v in enumerate(doc["vertices"]) if v["sign"] == sign)


def _k3_with_two_edges(doc):
    doc["edges"] += [{"a": 0, "b": 1}, {"a": 1, "b": 2}]
    return "vertex 0 has valence 0 but 1 edge ends"


def _negative_vertex_of_valence_2(doc):
    i = _first(doc, "negative")
    doc["vertices"][i]["valence"] = 2
    return f"vertex {i} has valence 2 but 3 edge ends"


def _records_on_a_positive_vertex(radii, error):
    def edit(doc):
        doc["thickening"] = [{"vertex": _first(doc, "positive"), "radius": r}
                             for r in radii]
        return error
    return edit


@pytest.mark.parametrize("leaf", ["euler", "validate"])
@pytest.mark.parametrize("graph, edit", [
    (["k3"], _k3_with_two_edges),
    (["quintic"], _negative_vertex_of_valence_2),
    (["quintic"], _records_on_a_positive_vertex(
        ["-7", "100"], "amoeba radius must be positive")),
    (["quintic"], _records_on_a_positive_vertex(
        ["100"], r"amoeba radius 100 reaches vertex \d+ from vertex \d+")),
    (["quintic", "--thicken", "2/25"], _records_on_a_positive_vertex(
        ["2/25"], "the thickening records are not those localized_thickening "
                  "writes at radius 2/25")),
])
def test_topo_rejects_a_graph_document_that_contradicts_itself(tmp_path, capsys,
                                                               leaf, graph, edit):
    """A valence that is not the vertex's number of edge ends, or thickening
    records that `localized_thickening` would not write, make every graph
    leaf exit 2 with one line naming what is wrong."""
    _, data, out = run(tmp_path, "graph", *graph, name="g.json")
    want = edit(data["graph"])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    code, data, _ = run(tmp_path, "topo", leaf, "--input", str(out), "--strict")
    assert code == 2 and data is None
    assert re.fullmatch(f"error: {want}\n", capsys.readouterr().err)


def test_check_simple_strict_rejects_doctored_atlas(tmp_path):
    from test_affine import doctored_node_model

    atlas = tmp_path / "doctored.json"
    atlas.write_text(json.dumps(affine.base_to_json(doctored_node_model())))
    code, data, _ = run(tmp_path, "base", "check-simple", "--input",
                        str(atlas), "--strict")
    assert code == 1
    assert not data["passed"]


@pytest.mark.parametrize("declared", ["positive_vertex", "x"])
def test_check_simple_strict_rejects_a_point_declared_as_another_model(tmp_path, declared):
    """The negative atlas with its point's ``type`` edited: the holonomy
    still matches the negative vertex, so the point is not simple, and the
    detail names the declared type and the matched model."""
    code, data, atlas = run(tmp_path, "base", "build", "--kind", "negative", name="atlas.json")
    assert code == 0 and data["singular_points"][0]["type"] == "negative"
    data["singular_points"][0]["type"] = declared
    atlas.write_text(json.dumps(data))
    code, data, _ = run(tmp_path, "base", "check-simple", "--input", str(atlas), "--strict")
    assert code == 1 and data["passed"] is False
    point = data["points"][0]
    assert point["simple"] is False and point["matched_model"] == "negative"
    assert point["detail"] == f"declared type {declared!r}, but the holonomy matched negative"


@pytest.mark.parametrize("edit, key", [
    ({"sign": "positive", "kind": "node"}, "kind"),
    ({"sign": "positive"}, "sign"),
    ({"tau": ["5", "1"]}, "tau"),
])
def test_an_atlas_discriminant_that_contradicts_its_model_is_a_usage_error(
        tmp_path, capsys, edit, key):
    """The negative atlas with its derived ``discriminant`` record edited
    (the top-level ``tau`` stays ["0"]): the reader exits 2 with one line
    naming the first field that differs from the record of the negative
    model and its tau."""
    _, data, atlas = run(tmp_path, "base", "build", "--kind", "negative", name="atlas.json")
    assert data["tau"] == ["0"] and data["singular_points"][0]["type"] == "negative"
    data["discriminant"].update(edit)
    atlas.write_text(json.dumps(data))
    capsys.readouterr()
    code, report, _ = run(tmp_path, "base", "check-simple", "--input", str(atlas), "--strict")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: atlas discriminant.{key} is ") and err.count("\n") == 1


def test_sheared_second_chart_keeps_the_negative_vertex_simple(tmp_path):
    """The negative model with U2 re-charted by a shear is the same affine
    manifold: g3 (U1 -> U2 -> U3 -> U1) still reads T3, and the atlas is
    simple.  Holonomy multiplied in crossing order read
    ((0,-1,0),(1,2,1),(0,0,1)) here and failed the check."""
    from test_affine import recharted

    shear = zlat.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    base = recharted(affine.build_local_model("negative"),
                     {"U2": zlat.AffineMapZ.from_linear(shear)})
    assert affine.check_cocycle(base) is None
    atlas = tmp_path / "sheared.json"
    atlas.write_text(json.dumps(affine.base_to_json(base)))
    code, data, _ = run(tmp_path, "base", "holonomy", "--input", str(atlas),
                        "--loop", "g3")
    assert code == 0 and zlat.mat(data["holonomy"]) == zlat.NEGATIVE_TRIPLE[2]
    code, data, _ = run(tmp_path, "base", "check-simple", "--input", str(atlas),
                        "--strict")
    assert code == 0 and data["passed"] is True
    assert data["points"][0]["matched_model"] == "negative"


def test_check_simple_reports_an_edge_conjugate_with_huge_entries(tmp_path, capsys):
    from test_zlat import _brute_force_conjugator

    # the edge model with its Hminus cotangent holonomy conjugated by Q,
    # Q's entries 2^40: no conjugator lies in the box [-3, 3], and the
    # normal forms find one all the same
    q = zlat.mat([[1, 2**40, 0], [0, 1, 2**40], [0, 0, 1]])
    base = affine.base_to_json(affine.build_local_model("edge"))
    piece = next(p for p in base["pieces"] if p["id"] == "Hminus")
    piece["transition"]["linear"] = zlat.matrix_to_json(zlat.inverse_transpose(
        zlat.mat_mul(zlat.mat_mul(q, zlat.T_GENERIC), zlat.inverse(q))))
    atlas = tmp_path / "huge.json"
    atlas.write_text(json.dumps(base))
    edge = affine.base_from_json(base)
    g = affine.holonomy(edge, edge.loops["g"])
    assert _brute_force_conjugator([g], [zlat.T_GENERIC], 3) is None
    code, data, _ = run(tmp_path, "base", "check-simple", "--input", str(atlas), "--strict")
    assert code == 0 and data["passed"] is True
    assert capsys.readouterr().err == ""
    p = zlat.mat(data["points"][0]["conjugator"])
    assert abs(zlat.det(p)) == 1
    assert zlat.mat_mul(zlat.mat_mul(zlat.inverse(p), g), p) == zlat.T_GENERIC


@pytest.mark.parametrize("argv", [
    ["graph", "quintic", "--thicken", "1/0"],
    ["base", "build", "--kind", "node", "--tau", "0,1/0"],
    ["periods", "monodromy", "--model", "thin_legs"],
    ["fib", "twist", "--which", "h0", "--eps", "0.1"],
    ["fib", "twist", "--which", "cutoff", "--eps", "0"],
    ["base", "holonomy", "--kind", "node", "--word", '[["x", "U1", "U2"]]'],
    ["base", "holonomy", "--kind", "node", "--word", "5"],
    ["base", "holonomy", "--kind", "node", "--word", "[1]"],
    ["fib", "amoeba", "--res", "0", "--strict"],
    ["fib", "amoeba", "--res", "5", "--bounds", "-800", "800", "--strict"],
    ["fib", "reduce-check", "--t", "nan", "--samples", "10"],
    ["periods", "numeric", "--model", "generic", "--b", "nan,0.3,-0.2"],
    ["fib", "amoeba", "--res", "5", "--bounds", "nan", "1"],
    ["fib", "amoeba", "--res", "5", "--bounds", "-inf", "1"],
    ["periods", "monodromy", "--frame", "positive", "--loop", "g2:2"],
    ["periods", "monodromy", "--frame", "focus_focus", "--loop", "circle:inf"],
    ["periods", "extend", "--chart", "positive", "--t0", "nan"],
    ["fib", "poisson", "--model", "sm_ff", "--samples", "0"],
    ["fib", "reduce-check", "--t", "0.5", "--samples", "0"],
    ["fib", "twist", "--samples", "-3"],
    ["fib", "reduce-check", "--t", "0", "--samples", "1", "--seed", "227"],
    ["fib", "twist", "--which", "cutoff", "--eps", "1e10"],
    ["fib", "twist", "--which", "cutoff", "--eps", "inf"],
    ["fib", "twist", "--which", "cutoff", "--eps", "1e-300"],
    ["periods", "monodromy", "--frame", "focus_focus", "--loop", "circle:0"],
    ["fib", "amoeba", "--res", "5", "--bounds", "1", "1"],
    # argparse's own errors
    ["periods", "extend", "--chart", "generic", "--tol", "0"],
    ["fib", "poisson"],
    ["fib", "smooth1", "--sigma", "half"],
    ["base", "build"],
    ["topo", "euler", "--input", "does-not-exist.json"],
    ["topo", "sign", "--triple", "[[1"],
])
# a warning would reach the terminal before the error line, so it fails here
@pytest.mark.filterwarnings("error")
def test_invalid_input_is_a_one_line_usage_error(tmp_path, capsys, argv):
    code, data, _ = run(tmp_path, *argv)
    assert code == 2 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_VERTEX = {"position": ["0", "0", "0", "0"], "sign": "negative", "valence": 3}


def _triple_with(entry):
    """The negative triple with T1[0][1] replaced by ``entry``, as JSON."""
    triple = [[list(row) for row in m] for m in zlat.NEGATIVE_TRIPLE]
    triple[0][0][1] = entry
    return json.dumps(triple)


def _negative_atlas_with_float_entry():
    atlas = affine.base_to_json(affine.build_local_model("negative"))
    atlas["pieces"][1]["transition"]["linear"][0][0] = 1.0
    return atlas


@pytest.mark.parametrize("argv, document", [
    (["base", "check-simple", "--input"], {}),
    (["base", "check-simple", "--input"], [1]),
    (["base", "holonomy", "--loop", "g1", "--input"],
     {"dim": 3, "charts": [], "pieces": [{"id": "p"}]}),
    (["base", "holonomy", "--loop", "g1", "--input"],
     {"dim": 3, "charts": [], "pieces": [], "loops": {"g1": {"base_chart": "U"}}}),
    (["base", "check-simple", "--input"], {"dim": "3", "charts": [], "pieces": []}),
    (["base", "check-simple", "--input"],
     {"dim": 3, "charts": [{"id": [1], "dim": 3}], "pieces": []}),
    (["base", "check-simple", "--input"],
     {"dim": 3, "charts": [], "pieces": [], "singular_points": 5}),
    (["base", "check-simple", "--input"],
     {"dim": 3, "charts": [], "pieces": [], "singular_points": [{"id": "p", "loops": ["g"]}]}),
    (["base", "check-simple", "--input"], {"dim": 3, "charts": [], "pieces": [], "tau": [None]}),
    (["base", "check-simple", "--input"], {"dim": 3, "charts": [{"id": "U", "dim": 3}], "pieces": [
        {"id": "p", "chart_a": "U", "chart_b": "U", "region": "",
         "transition": {"linear": [[1]], "translation": [None]}}]}),
    (["topo", "euler", "--input"], [1]),
    (["topo", "validate", "--input"], [1]),
    (["topo", "euler", "--input"], {}),
    (["topo", "euler", "--input"], {"vertices": [1], "edges": []}),
    (["topo", "euler", "--input"], {"vertices": [dict(_VERTEX, position=5)], "edges": []}),
    (["topo", "euler", "--input"], {"vertices": [dict(_VERTEX, position=[["0"]])],
                                    "edges": []}),
    (["topo", "euler", "--input"], {"vertices": [dict(_VERTEX, position=["1/0"])],
                                    "edges": []}),
    (["topo", "euler", "--input"], {"vertices": [_VERTEX], "edges": [{"a": 0, "b": 5}]}),
    (["topo", "euler", "--input"], {"graph": {"vertices": [_VERTEX], "edges": {}}}),
    (["topo", "sign", "--triple", "[1,2,3]"], None),
    (["topo", "sign", "--triple", "5"], None),
    # a non-integer matrix entry is not truncated
    (["topo", "sign", "--triple", _triple_with(1.9)], None),
    (["topo", "sign", "--triple", _triple_with(True)], None),
    (["topo", "sign", "--triple", _triple_with("1")], None),
    (["base", "check-simple", "--input"], _negative_atlas_with_float_entry()),
])
@pytest.mark.filterwarnings("error")
def test_json_of_the_wrong_shape_is_a_one_line_usage_error(tmp_path, capsys, argv,
                                                          document):
    if document is not None:
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document))
        argv = [*argv, str(path)]
    code, data, _ = run(tmp_path, *argv)
    assert code == 2 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _atlas_with(kind, edit):
    """The local model ``kind`` as an atlas document, edited in place."""
    atlas = affine.base_to_json(affine.build_local_model(kind))
    edit(atlas)
    return atlas


@pytest.mark.parametrize("argv, document", [
    (["base", "check-simple", "--input"],
     _atlas_with("edge", lambda a: a.update(tau=[False, True]))),
    (["base", "holonomy", "--loop", "g1", "--input"],
     _atlas_with("negative", lambda a: a["pieces"][0]["transition"].update(
         translation=[True, 0, 0]))),
    (["topo", "euler", "--input"],
     {"vertices": [dict(_VERTEX, position=[True, False, 0, 0])], "edges": []}),
])
@pytest.mark.filterwarnings("error")
def test_json_bools_are_not_read_as_one_and_zero(tmp_path, capsys, argv, document):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    code, data, _ = run(tmp_path, *argv, str(path))
    assert code == 2 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exact rationals, got True" in err or "exact rationals, got False" in err, err


def _edit_piece(piece_id, **transition):
    def edit(atlas):
        piece = next(p for p in atlas["pieces"] if p["id"] == piece_id)
        piece["transition"].update(transition)
    return edit


def _add_loop(*crossings, base="U1"):
    return lambda atlas: atlas["loops"].update(
        g4={"base_chart": base, "crossings": [list(c) for c in crossings]})


def _insert_identity_12b(offset):
    """A second U1 -> U2 piece on region Vplus, 12+b, the identity (12+
    is not), inserted before (offset 0) or after (offset 1) piece 12+."""
    def edit(atlas):
        k = next(k for k, p in enumerate(atlas["pieces"]) if p["id"] == "12+")
        atlas["pieces"].insert(k + offset, {
            "id": "12+b", "chart_a": "U1", "chart_b": "U2", "region": "Vplus",
            "transition": zlat.affine_to_json(zlat.AffineMapZ.identity(3))})
    return edit


@pytest.mark.parametrize("document, error", [
    # no loop crosses 23-, so its holonomy cannot catch the edit
    (_atlas_with("negative", _edit_piece("23-", linear=[[1, 0, 0], [0, 1, 0], [2, 0, 1]])),
     "atlas is not a cocycle on region 'Vminus': U1 -> U2 -> U3 is not U1 -> U3"),
    # holonomy reads linear parts only
    (_atlas_with("negative", _edit_piece("12+", translation=["1", "0", "0"])),
     "atlas is not a cocycle on region 'Vplus': U1 -> U2 -> U3 is not U1 -> U3"),
    # no singular point reads g4
    (_atlas_with("negative", _add_loop(("nope", "U1", "U2"), ("12-", "U2", "U1"))),
     "loop 'g4': unknown overlap piece 'nope'"),
    (_atlas_with("negative", _add_loop(("12+", "U1", "U3"), ("13+", "U3", "U1"))),
     "loop 'g4': crossing Crossing(piece='12+', frm='U1', to='U3') does not match "
     "piece 12+ (U1 <-> U2)"),
    # no loop crosses 12+b, and before 12+ no chart triple reads it either
    (_atlas_with("negative", _insert_identity_12b(0)),
     "atlas is not a cocycle on region 'Vplus': pieces 12+b and 12+ glue the same "
     "charts differently"),
    (_atlas_with("negative", _insert_identity_12b(1)),
     "atlas is not a cocycle on region 'Vplus': pieces 12+ and 12+b glue the same "
     "charts differently"),
    # no step of either leaf reads a chart's dimension
    (_atlas_with("negative", lambda atlas: atlas["charts"][0].update(dim=7)),
     "chart U1 has dimension 7, not the atlas dimension 3"),
    (_atlas_with("negative", _edit_piece("23-", linear=[[1, 0], [0, 1]],
                                         translation=["0", "0"])),
     "piece 23- has a 2 x 2 transition in an atlas of dimension 3"),
    (_atlas_with("negative", _add_loop(("12+", "U1", "U2"), ("12-", "U2", "U1"), base="U2")),
     "loop 'g4': crossing sequence broken: at U2, next crossing leaves from U1"),
    (_atlas_with("negative", _add_loop(("12+", "U1", "U2"), ("13+", "U3", "U1"))),
     "loop 'g4': crossing sequence broken: at U2, next crossing leaves from U3"),
    (_atlas_with("negative", _add_loop(("12+", "U1", "U2"))),
     "loop 'g4': loop word does not return to its base chart"),
], ids=["linear part", "translation", "unknown piece", "other charts",
        "duplicate piece before", "duplicate piece after", "chart dimension",
        "transition dimension", "loop base", "loop broken", "loop open"])
@pytest.mark.parametrize("leaf", [["check-simple", "--strict"], ["holonomy", "--loop", "g1"]],
                         ids=["check-simple", "holonomy"])
def test_an_atlas_that_is_not_a_manifold_is_a_usage_error(tmp_path, capsys, document,
                                                          error, leaf):
    path = tmp_path / "atlas.json"
    path.write_text(json.dumps(document))
    code, data, _ = run(tmp_path, "base", *leaf, "--input", str(path))
    assert code == 2 and data is None
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("kind", ["node", "edge", "positive", "negative"])
def test_base_build_passes_on_the_cocycle_check(tmp_path, monkeypatch, kind):
    code, data, _ = run(tmp_path, "base", "build", "--kind", kind, "--strict")
    assert code == 0 and data["passed"] is True
    monkeypatch.setattr(affine, "check_cocycle", lambda base: "not a cocycle")
    code, data, _ = run(tmp_path, "base", "build", "--kind", kind, "--strict")
    assert code == 1 and data["passed"] is False


def test_graph_k3_has_no_thicken_option(tmp_path, capsys):
    """The K3 graph has no negative vertex, so a radius would be ignored."""
    code, data, _ = run(tmp_path, "graph", "k3", "--thicken", "1/2")
    assert code == 2 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (["fib", "amoeba", "--res", "5", "--bounds", "2", "1"], ["bounds", "2.0 1.0"]),
    (["fib", "amoeba", "--res", "5", "--bounds", "-800", "800"],
     ["bounds", "-800.0 800.0"]),
    (["fib", "amoeba", "--res", "5", "--bounds", "-1e306", "1e306"],
     ["bounds", "-1e+306 1e+306"]),
    (["fib", "twist", "--which", "h0", "--eps", "0.1"], ["h0", "0.1"]),
    # the extend tolerance is a layer constant: the option itself is named
    (["periods", "extend", "--chart", "generic", "--tol", "-1"], ["--tol", "-1"]),
    (["periods", "extend", "--chart", "generic", "--tol", "nan"], ["--tol", "nan"]),
    (["fib", "reduce-check", "--t", "inf", "--samples", "10"], ["level t", "inf"]),
    (["germs", "ell1", "--case", "fake", "--m", "--strict"], ["fake", "one m"]),
    (["germs", "ell1", "--case", "equal", "--m", "--strict"], ["equal", "one m"]),
    (["periods", "monodromy", "--frame", "focus_focus", "--loop", "circle:-1"],
     ["radius", "-1.0"]),
    (["periods", "extend", "--chart", "positive", "--t0", "inf"], ["t0", "inf"]),
    (["fib", "twist", "--which", "cutoff", "--eps", "0"], ["eps", "0.0"]),
    (["fib", "twist", "--which", "cutoff", "--eps", "nan"], ["eps", "nan"]),
    (["fib", "reduce-check", "--t", "-inf", "--samples", "10"], ["level t", "-inf"]),
    (["fib", "amoeba", "--res", "-2"], ["res", "-2"]),
    (["graph", "quintic", "--thicken", "1/0"], ["--thicken", "'1/0'"]),
    (["base", "build", "--kind", "node", "--tau", "0,x"], ["--tau", "'x'"]),
    (["periods", "extend", "--chart", "generic", "--tol", "inf"], ["--tol", "inf"]),
    (["fib", "amoeba", "--res", "100000"], ["res", "100000"]),
    # a point on a leg, a node, and base points that are not 3 finite numbers
    (["periods", "numeric", "--model", "positive", "--b=0,0,-1"],
     ["b = [0.0, 0.0, -1.0]"]),
    (["periods", "numeric", "--model", "sm_ff", "--b=0,0"], ["b = [0.0, 0.0]"]),
    (["periods", "numeric", "--model", "generic", "--b=inf,0.3,-0.2"],
     ["base point b", "[inf, 0.3, -0.2]"]),
    (["periods", "numeric", "--model", "generic", "--b=1e300,0.3,-0.2"],
     ["b = [1e+300, 0.3, -0.2]"]),
    (["periods", "numeric", "--model", "generic", "--b=nan,0.3,-0.2"],
     ["base point b", "[nan, 0.3, -0.2]"]),
    (["periods", "numeric", "--model", "generic", "--b", "0.1,0.3"],
     ["base point b", "3 finite numbers", "[0.1, 0.3]"]),
])
@pytest.mark.filterwarnings("error")
def test_invalid_values_are_named_in_one_line(tmp_path, capsys, argv, named):
    code, data, _ = run(tmp_path, *argv)
    assert code == 2 and data is None and list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(word in err for word in named), err


@pytest.mark.parametrize("argv, message", [
    (["base", "holonomy", "--kind", "node", "--input", "atlas.json", "--loop", "g1",
      "--word", '[["x", "U1", "U2"]]'], "not allowed with argument --kind"),
    (["base", "holonomy", "--input", "atlas.json", "--loop", "g1",
      "--word", '[["x", "U1", "U2"]]'], "not allowed with argument --loop"),
    (["base", "holonomy", "--input", "atlas.json"], "--loop --word is required"),
    (["base", "check-simple", "--kind", "edge", "--input", "atlas.json"],
     "not allowed with argument --kind"),
    (["base", "check-simple", "--input", "atlas.json", "--tau", "0,1"], "tau"),
    (["periods", "monodromy", "--model", "sm_ff", "--frame", "positive"],
     "not allowed with argument --model"),
    (["periods", "monodromy"], "--model --frame is required"),
    (["base", "build", "--kind", "node", "--tau", "1,2"], "no handle"),
    (["base", "check-simple", "--kind", "node", "--tau", "0,1"], "no handle"),
])
@pytest.mark.filterwarnings("error")
def test_conflicting_options_are_one_line_usage_errors(tmp_path, monkeypatch, capsys,
                                                       argv, message):
    monkeypatch.chdir(tmp_path)
    cli.main(["base", "build", "--kind", "negative", "--out", "atlas.json"])
    capsys.readouterr()
    code, data, _ = run(tmp_path, *argv)
    assert code == 2 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


# a value for each required option of a leaf with a float option
_REQUIRED = {"--model": "thin_legs", "--t": "0.5", "--chart": "generic"}


@pytest.mark.filterwarnings("error")
def test_float_options_fail_as_usage_errors(tmp_path, capsys):
    """Every float option of every leaf, at nan, inf and -1, either runs
    or is one usage-error line: exit 0 or 2, never a traceback."""
    runs = 0
    for words, leaf in _leaves():
        floats = [a for a in leaf._actions if a.type is float]
        if not floats:
            continue
        argv = list(words)
        for a in leaf._actions:
            if a.required:
                argv += [a.option_strings[0], _REQUIRED[a.option_strings[0]]]
        if any(a.dest == "samples" for a in leaf._actions):
            argv += ["--samples", "5"]
        for action in floats:
            for value in ("nan", "inf", "-1"):
                opt = [action.option_strings[0]] + [value] * (action.nargs or 1)
                code, _, _ = run(tmp_path, *argv, *opt)
                err = capsys.readouterr().err
                assert code in (0, 2) and err.count("\n") <= 1, (argv, opt, err)
                runs += 1
    assert runs == 3 * 4


# a quick valid run of each leaf, into which the fuzz puts one option
_FUZZ_BASE = {
    "base build": ["--kind", "negative"],
    "base check-simple": ["--kind", "edge"],
    "base holonomy": ["--kind", "negative", "--loop", "g1"],
    "topo euler": ["--input", "k3.json"],
    "topo validate": ["--input", "k3.json"],
    "topo sign": ["--triple", json.dumps([[list(r) for r in m]
                                          for m in zlat.NEGATIVE_TRIPLE])],
    "fib poisson": ["--model", "sm_ff", "--samples", "5"],
    "fib reduce-check": ["--t", "0.5", "--samples", "5"],
    "fib amoeba": ["--res", "2"],
    "fib discriminant": ["--model", "thin_legs"],
    "fib twist": ["--samples", "2"],
    "periods frame": ["--kind", "generic"],
    "periods numeric": ["--model", "generic", "--b", "0.15,0.3,-0.2"],
    "periods monodromy": ["--frame", "positive", "--loop", "g2:1.0"],
    "periods extend": ["--chart", "generic"],
}
_FUZZ_VALUES = ["", "nan", "-inf", "1e400", "-1", "x", "[]", "1/0"]


@pytest.mark.filterwarnings("error")
def test_every_option_survives_adversarial_values(tmp_path, monkeypatch, capsys):
    """Every option of the ledger, given each of ``_FUZZ_VALUES`` (as many
    times as it takes values, at least once) in a quick valid run of its leaf, with the
    options it excludes taken out: exit 0 or 1 with nothing on stderr, or
    exit 2 with one ``error:`` line; never a traceback or a warning."""
    monkeypatch.chdir(tmp_path)
    cli.main(["graph", "k3", "--out", "k3.json"])
    # one parser for every run: building it is most of a usage error's time
    parser = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    leaves = {" ".join(words): leaf for words, leaf in _leaves()}
    runs = 0
    for name, options in OPTION_LEDGER.items():
        leaf = leaves[name]
        for option in options:
            action = leaf._option_string_actions[option]
            excluded = {option} | {o for g in leaf._mutually_exclusive_groups
                                   if action in g._group_actions
                                   for a in g._group_actions for o in a.option_strings}
            base = _FUZZ_BASE.get(name, [])
            pairs = [base[i:i + 2] for i in range(0, len(base), 2)]
            argv = [*name.split(), *(w for p in pairs if p[0] not in excluded for w in p)]
            for value in _FUZZ_VALUES:
                # a flag (nargs 0) gets the value as a stray argument
                values = [value] * max(1, action.nargs if isinstance(action.nargs, int) else 1)
                code = cli.main([*argv, option, *values, "--out", "report.json"])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv, option, value, code)
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, \
                        (argv, option, value, err)
                else:
                    assert err == "", (argv, option, value, err)
                runs += 1
    assert runs == 8 * sum(map(len, OPTION_LEDGER.values()))


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_names_the_flag(tmp_path, capsys, samples):
    code, _, _ = run(tmp_path, "fib", "poisson", "--model", "sm_ff",
                     "--samples", samples)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --samples must be at least 1, got {samples}\n")


def test_values_may_start_with_a_minus_sign(tmp_path):
    _, _, spaced = run(tmp_path, "periods", "numeric", "--model", "generic",
                       "--b", "-0.1,0.1,0.25", name="spaced.json")
    _, _, joined = run(tmp_path, "periods", "numeric", "--model", "generic",
                       "--b=-0.1,0.1,0.25", name="joined.json")
    assert spaced.read_bytes() == joined.read_bytes()
    code, data, _ = run(tmp_path, "fib", "amoeba", "--res", "20",
                        "--bounds", "-2.5e-1", "1")
    assert code == 0 and data["bounds"] == [-0.25, 1.0, -0.25, 1.0]


def _src_env():
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def test_a_closed_stdout_is_one_error_line_and_exit_2(tmp_path):
    """The reader closed its end of the pipe before the report came; the
    quintic dual's report is larger than a pipe holds (64 KB), so some
    write fails whatever the timing."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tfib.cli", "graph", "quintic", "--dual"],
            cwd=tmp_path, stdout=write, stderr=subprocess.PIPE, text=True,
            env=_src_env(), timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == cli.USAGE_ERROR
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


# Runs the process entry on ``fib list`` and prints the collector's state
# after it returns.
_GC_PROBE = """
import gc, sys
from tfib import cli
sys.argv[1:] = ["fib", "list"]
code = cli.run()
print(code, gc.isenabled(), gc.get_freeze_count() > 0)
"""


def test_the_process_entry_turns_the_collector_off_and_freezes_the_heap(tmp_path):
    out = subprocess.run([sys.executable, "-c", _GC_PROBE], cwd=tmp_path,
                         capture_output=True, text=True, check=True, env=_src_env())
    assert out.stdout.splitlines()[-1] == "0 False True"


def test_main_leaves_the_collector_as_it_is(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["fib", "list"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_the_tfib_script_is_the_entry_that_python_m_runs():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["tfib"]
    module, name = target.split(":")
    tree = ast.parse(Path(cli.__file__).read_text())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = {node.func.id for node in ast.walk(block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert module == "tfib.cli" and called == {name}
    assert getattr(cli, name) is cli.run


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = "import sys, tfib.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


# Runs ``cli.main`` on each argv of argv[2] (JSON), in order, in one fresh
# process, and prints which of the modules in argv[1] are loaded after
# ``import tfib.cli`` and after each command, with the command's exit code.
_MODULE_PROBE = """
import contextlib, io, json, sys
from tfib import cli
watched = json.loads(sys.argv[1])
loaded = lambda: [m for m in watched if m in sys.modules]
out = [[0, loaded()]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append([code, loaded()])
print(json.dumps(out))
"""

_WATCHED = ["numpy", "scipy", "tfib.affine", "tfib.polybase", "tfib.topo",
            "tfib.germs", "concurrent.futures"]


def modules_after(tmp_path, commands):
    """[(exit code, watched modules loaded)] after ``import tfib.cli`` and
    after each command, run in order in one fresh process in tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(_WATCHED),
         json.dumps(commands)],
        cwd=tmp_path, capture_output=True, text=True, check=True, env=env)
    return [tuple(row) for row in json.loads(out.stdout)]


def test_cli_import_and_help_leave_numpy_unloaded(tmp_path):
    after_import, after_help = modules_after(tmp_path, [["--help"]])
    assert after_import == (0, [])
    assert after_help == (0, [])


def test_fib_list_leaves_numpy_unloaded(tmp_path):
    (code, loaded), = modules_after(tmp_path, [["fib", "list"]])[1:]
    assert code == 0 and loaded == []


def test_exact_readme_commands_leave_numpy_unloaded(tmp_path):
    exact = [argv for argv in readme_commands()
             if argv[0] in ("graph", "topo", "base")]
    assert [argv[:2] for argv in exact] == [
        ["graph", "k3"], ["topo", "euler"], ["graph", "quintic"],
        ["base", "build"], ["base", "holonomy"], ["base", "check-simple"],
        ["topo", "sign"]]
    for argv, (code, loaded) in zip(exact, modules_after(tmp_path, exact)[1:]):
        assert code == 0 and "numpy" not in loaded, (argv, loaded)


def test_fib_poisson_loads_no_exact_or_germs_layer(tmp_path):
    poisson = [argv for argv in readme_commands() if argv[:2] == ["fib", "poisson"]]
    (code, loaded), = modules_after(tmp_path, poisson)[1:]
    assert code == 0
    assert loaded == ["numpy"]


def test_no_readme_command_loads_scipy(tmp_path):
    """Nor the thread pool's concurrent.futures, which tfib never starts."""
    commands = readme_commands()
    for argv, (code, loaded) in zip(commands, modules_after(tmp_path, commands)[1:]):
        assert code == 0, argv
        assert "scipy" not in loaded, (argv, loaded)
        assert "concurrent.futures" not in loaded, (argv, loaded)


def test_cli_imports_only_the_stdlib_and_tfib():
    tree = ast.parse(Path(cli.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("tfib" if node.level else node.module.split(".")[0])
    assert "numpy" not in roots and "tfib" in roots
    assert roots - {"tfib"} <= set(sys.stdlib_module_names)


def test_no_tfib_module_imports_scipy():
    src = Path(cli.__file__).parent
    importers = sorted(str(p.relative_to(src)) for p in src.rglob("*.py")
                       if re.search(r"^\s*(import|from) scipy", p.read_text(), re.M))
    assert importers == []
