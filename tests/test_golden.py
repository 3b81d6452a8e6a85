"""The README's CLI examples against a golden manifest of their outputs.

``tests/golden/readme.json`` holds, for each README command in order, its
exit code and a check of its stdout and of every file it writes.  The
commands run in-process through ``cli.main``, in one scratch directory,
as the README lists them (so ``topo euler --input k3.json`` reads the file
``graph k3 --out k3.json`` wrote).  A report that holds a float (stdout
or a ``.json`` file) is stored as its parsed value and compared number by
number within ``GOLDEN_RTOL`` relative to max(1, |value|): its last bits
may differ on another libm or SIMD path.  Every other output (the exact
reports, ``.dot``, ``.csv`` and ``.svg`` files) is stored as its SHA-256
and compared byte for byte.  ``python tests/golden/update.py`` rewrites
the manifest; a change that moves an output shows in its diff.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from tfib import cli, report
from test_cli import readme_commands

MANIFEST = Path(__file__).parent / "golden" / "readme.json"
GOLDEN_RTOL = 1e-12


def _holds_float(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_holds_float(v) for v in value)
    return isinstance(value, float)


def _stored(name, data):
    """The manifest's check of one output: its parsed value if it is a JSON
    report that holds a float, else its SHA-256."""
    if name == "stdout" or name.endswith(".json"):
        try:
            value = json.loads(data)
        except ValueError:
            value = None
        if _holds_float(value):
            return {"value": value}
    return {"sha256": hashlib.sha256(data.encode()).hexdigest()}


def _files(workdir):
    return {p.name: p.read_text() for p in sorted(workdir.iterdir()) if p.is_file()}


def run_readme(workdir, commands=None):
    """Run the README commands in ``workdir``, in order: one manifest entry
    per command, with the files that it created or changed."""
    workdir = Path(workdir)
    entries = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_commands() if commands is None else commands:
            before = _files(workdir)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            written = {name: text for name, text in _files(workdir).items()
                       if before.get(name) != text}
            entries.append({"argv": argv, "exit": code,
                            "stdout": _stored("stdout", out.getvalue()),
                            "files": {name: _stored(name, text)
                                      for name, text in written.items()}})
    finally:
        os.chdir(cwd)
    return entries


def _value_mismatch(want, got, where):
    if float in (type(want), type(got)):
        ok = ({type(want), type(got)} <= {int, float}
              and abs(want - got) <= GOLDEN_RTOL * max(1.0, abs(want), abs(got)))
        return [] if ok else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _value_mismatch(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in _value_mismatch(a, b, f"{where}[{i}]")]
    return [] if want == got and type(want) is type(got) else [f"{where}: {got!r} != {want!r}"]


def _check_mismatch(want, got, where):
    if "sha256" in want:
        return [] if want == got else [f"{where}: bytes differ"]
    if "value" not in got:
        return [f"{where}: no float-bearing report"]
    return _value_mismatch(want["value"], got["value"], where)


def mismatches(want, got):
    """What differs between two manifest entries of the same command, as
    one line per difference; [] when they agree."""
    where = " ".join(want["argv"])
    out = []
    if got["argv"] != want["argv"]:
        return [f"{where}: ran {' '.join(got['argv'])}"]
    if got["exit"] != want["exit"]:
        out.append(f"{where}: exit {got['exit']} != {want['exit']}")
    out += _check_mismatch(want["stdout"], got["stdout"], f"{where}: stdout")
    if got["files"].keys() != want["files"].keys():
        out.append(f"{where}: wrote {sorted(got['files'])} != {sorted(want['files'])}")
    for name in want["files"].keys() & got["files"].keys():
        out += _check_mismatch(want["files"][name], got["files"][name], f"{where}: {name}")
    return out


def write_manifest(workdir):
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(report.canonical_json({"commands": run_readme(workdir)}))


def _manifest():
    return json.loads(MANIFEST.read_text())["commands"]


def test_readme_outputs_match_the_golden_manifest(tmp_path):
    want = _manifest()
    got = run_readme(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in want]
    assert [m for a, b in zip(want, got) for m in mismatches(a, b)] == []


def test_golden_manifest_covers_every_readme_command():
    want = _manifest()
    assert len(want) == len(readme_commands()) == 21
    # the exact commands are pinned by digest, the numeric ones by value
    assert {tuple(e["argv"][:2]) for e in want if "value" in e["stdout"]} \
        >= {("fib", "twist"), ("periods", "numeric")}
    assert all("sha256" in e["stdout"] for e in want if e["argv"][0] in ("graph", "topo", "base"))


def test_a_one_byte_change_to_an_exact_command_fails(tmp_path, monkeypatch):
    real = report.canonical_json
    # the report writer with its last byte (the final newline) replaced
    monkeypatch.setattr(report, "canonical_json", lambda rep: real(rep)[:-1] + " ")
    commands = readme_commands()[:1]            # tfib graph k3 --out k3.json
    got = run_readme(tmp_path, commands)
    assert mismatches(_manifest()[0], got[0]) == ["graph k3 --out k3.json: k3.json: bytes differ"]


def test_float_reports_compare_within_the_stated_tolerance():
    def entry(value):
        return {"argv": ["fib", "twist"], "exit": 0, "files": {},
                "stdout": {"value": {"defect": value, "passed": True}}}

    assert mismatches(entry(2.5), entry(2.5 * (1.0 + 0.5 * GOLDEN_RTOL))) == []
    assert mismatches(entry(2.5), entry(2.5 * (1.0 + 4.0 * GOLDEN_RTOL))) != []
    # a 1e-9 move of a small value shows
    assert mismatches(entry(3e-10), entry(1.3e-9)) != []
