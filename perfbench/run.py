"""tfib benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

Usage, from the root of a checkout (no install step: tfib is imported from
``src/``)::

    python3 perfbench/run.py --workload exact_atlas --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: ``cli_readme``, ``exact_quintic``, ``exact_atlas``, ``numeric``
(see ``workloads.py``); ``all`` runs each in its own process, one after
another.  A run repeats whole passes over its seeded operations until
``--seconds`` have passed and at least three passes ran (``cli_readme``
runs one pass, which takes longer), checks every answer with
``oracle.py``, and prints a summary followed, on the last line, by one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: setup_s (median of three
cold set-ups), pass_s (the one pass of cli_readme; in-process, the lower
quartile of the passes, see ``lower_quartile``), cmd_p50_s (median cold
command on cli_readme; in-process, the mean operation time, see
``typical_op_s``) and peak_rss_mb.  The three times are wall times scaled
to a reference host speed measured in the same run (``HostSpeed``); the
summary lines print the raw wall times and the factor.  ``--trace 1`` runs untraced passes,
then traced ones, and reports the per-layer metrics of ``spans.py`` plus
the tracing overhead.
fail_ratio (failed / attempted) is printed in the summary; it is not a
metric of the result line because it reads 0 on a correct program.

Every result records the environment.  Stated limits: the benchmark pins
no CPU, controls no frequency and drops no cache; TFIB_THREADS is removed
from the environment so tfib's default of one thread applies.  Scratch
files go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
# wall time of ``reference_kernel`` at the reference speed
REFERENCE_KERNEL_S = 0.035

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.busy_s": "s",
    "zlat.conj.calls": "count", "zlat.conj.busy_s": "s", "zlat.conj.found_ratio": "ratio",
    "zlat.conj.cache_misses": "count",
    "affine.holonomy.calls": "count", "affine.busy_s": "s",
    "polybase.busy_s": "s", "polybase.json_busy_s": "s",
    "topo.validate.busy_s": "s", "topo.validate.items": "count",
    "symplab.poisson.busy_s": "s", "symplab.reduction.busy_s": "s",
    "symplab.twist.busy_s": "s", "symplab.model_f.calls": "count",
    "symplab.twist.ham_calls": "count",
    "periods.numeric.busy_s": "s", "periods.a0.busy_s": "s",
    "periods.extend.busy_s": "s", "periods.monodromy.busy_s": "s",
    "germs.seam.busy_s": "s", "numerics.busy_s": "s",
    "report.busy_s": "s", "report.bytes": "B",
    "symplab.poisson.max_bracket": "abs", "periods.numeric.max_quad_err": "abs",
    "germs.seam.max_err": "abs", "periods.a0.odd_defect": "abs",
    "trace.pass_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("TFIB_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **versions,
        "loadavg_start": os.getloadavg(),
        "limits": "no CPU pinning, no frequency control, no cache dropping",
        "TFIB_THREADS": "unset (tfib default: 1 thread)",
    }


def median(values):
    return statistics.median(values) if values else 0.0


def reference_kernel():
    """Wall time of a fixed piece of work that does not touch tfib: Python
    dict, tuple and Fraction churn, numpy passes over 100k floats and an
    integer loop -- the kinds of work the workloads do."""
    start = time.perf_counter()
    acc = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    sorted(acc.items())
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(15):
        a = np.sqrt(a * 1.0001 + 1.0)
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """The host's speed during a run, from ``reference_kernel`` samples taken
    between the timed pieces of work.

    This host's speed drifts by 20-25% over tens of minutes and in bursts
    (other tenants); a run scales its times by REFERENCE_KERNEL_S over the
    kernel's lower-quartile time, so they read as seconds at the reference
    speed.  Under a load made on purpose, the scaled quintic pass moved by
    under a third of the raw one.
    """

    def __init__(self):
        self.samples = []

    def sample(self, count=2):
        self.samples.extend(reference_kernel() for _ in range(count))

    @property
    def factor(self):
        return REFERENCE_KERNEL_S / lower_quartile(self.samples)


def lower_quartile(values):
    """First quartile of a run's pass times.

    The host's contention comes in bursts that slow some passes of a run by
    up to half; across runs the median pass moved by 11-27% (IQR / median)
    while the fastest passes moved by about 10%, so a run reports the time
    that a quarter of its passes beat.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


# ----------------------------------------------------------------------
# set-up time and import time
# ----------------------------------------------------------------------

def probe_argv(workload, seed):
    if workload == "cli_readme":
        return [sys.executable, "-m", "tfib.cli", *workloads.SETUP_COMMAND]
    return [sys.executable, str(HERE / "run.py"), "--probe", workload, "--seed", str(seed)]


def time_setup(workload, seed, cwd, speed):
    """Wall time from process start until the first operation could run:
    a cold no-work CLI command, or a process that imports tfib and builds
    the workload's inputs and then says so."""
    speed.sample()
    argv = probe_argv(workload, seed)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    if workload != "cli_readme":
        proc.stdout.readline()
    ready = time.perf_counter() - start
    out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if workload == "cli_readme":
        ready = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe {argv} failed: {err.decode()[-500:]}")
    return ready


def import_times(stderr):
    """(total, scipy) cumulative import seconds from ``-X importtime`` output.

    Lines come children first; the name column is indented two spaces per
    nesting level.  Total is the sum over top-level imports; scipy is the
    sum over scipy modules not imported from inside scipy.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2]
        level = (len(field) - len(field.lstrip()) - 1) // 2
        rows.append((level, field.strip(), int(parts[1]) * 1e-6))
    total = scipy = 0.0
    stack = []  # (level, inside scipy) of the enclosing imports, innermost last
    for level, name, cum in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        outer_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if level == 0:
            total += cum
        if is_scipy and not outer_scipy:
            scipy += cum
        stack.append((level, is_scipy or outer_scipy))
    return total, scipy


def measure_imports(workload, seed, cwd):
    argv = probe_argv(workload, seed)
    proc = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], cwd=cwd,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    return import_times(proc.stderr)


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

def run_pass(wl, report):
    """One timed pass: (pass seconds, op seconds, report text, outputs)."""
    wl.before_pass()
    outputs, times = [], []
    start = time.perf_counter()
    for op in wl.ops:
        t = time.perf_counter()
        try:
            outputs.append((op.run(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t)
    text = report.canonical_json({
        op.label: op.summary(value) if err is None else {"error": err}
        for op, (value, err) in zip(wl.ops, outputs)})
    return time.perf_counter() - start, times, text, outputs


def check_pass(wl, outputs, text, reference, tally):
    for op, (value, err) in zip(wl.ops, outputs):
        if err is not None:
            tally.record(op.label, err)
            continue
        try:
            reasons = op.check(value)
        except Exception as exc:  # a malformed answer is a failed check
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        for reason in reasons:
            tally.record(op.label, reason)
    if reference is not None:
        tally.record("report bytes", None if text == reference
                     else "report bytes differ from the first pass")


def passes(wl, report, seconds, min_passes, tally, reference=None, rec=None,
           speed=None):
    """Repeat passes until ``seconds`` have passed and ``min_passes`` ran.

    With a recorder ``rec`` installed, also returns each pass's per-layer
    metrics and spans; with ``speed``, samples the host speed between passes."""
    pass_s, op_s, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while len(pass_s) < min_passes or time.perf_counter() < deadline:
        if speed is not None:
            speed.sample()
        if rec is not None:
            rec.pass_id = len(pass_s)
            rec.counts.clear()
            first = len(rec.spans)
        elapsed, times, text, outputs = run_pass(wl, report)
        if rec is not None:
            traced.append(pass_layers(wl, rec, first, outputs))
        check_pass(wl, outputs, text, reference, tally)
        reference = text if reference is None else reference
        pass_s.append(elapsed)
        op_s.append(times)
    return pass_s, op_s, reference, traced


def pass_layers(wl, rec, first, outputs):
    """(per-layer metrics, spans) of the pass whose spans start at ``first``."""
    from tfib import zlat
    # each pass starts by clearing the cache, which resets its statistics
    rec.counts["zlat.conj.cache_misses"] = zlat._conjugator_cached.cache_info().misses
    part = spans.pass_spans(rec.spans, first, len(rec.spans))
    metrics = spans.layer_metrics(part, rec.counts)
    metrics.update(wl.margins(outputs))
    metrics["trace.spans"] = len(part)
    return metrics, part


def typical_op_s(op_s):
    """Lower quartile over passes of the mean time of one operation.

    The median of one pass's mixed operations falls in a gap between
    clusters (fast checks, slow quadratures) and jumps from seed to seed
    (0.016 s against 0.023 s on ``numeric``); the mean does not.
    """
    return lower_quartile([sum(times) / len(times) for times in op_s])


def in_process(name, seed, seconds, trace, tally, cwd):
    wl = workloads.IN_PROCESS[name]()
    speed = HostSpeed()
    setups = [time_setup(name, seed, cwd, speed) for _ in range(SETUP_PROBES)]
    wl.setup(seed)
    from tfib import report
    if not trace:
        pass_s, op_s, _, _ = passes(wl, report, seconds, wl.min_passes, tally, speed=speed)
        speed.sample()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        k = speed.factor
        return {"setup_s": k * median(setups), "pass_s": k * lower_quartile(pass_s),
                "cmd_p50_s": k * typical_op_s(op_s), "peak_rss_mb": rss}, \
            None, samples(setups, pass_s, f"{len(wl.ops)} ops x {len(pass_s)} passes", speed)

    half = max(1, wl.min_passes - 1)
    plain_s, _, reference, _ = passes(wl, report, seconds / 2, half, tally)
    rec = spans.install(spans.Recorder())
    try:
        traced_s, _, _, per_pass = passes(wl, report, seconds / 2, half, tally,
                                          reference, rec)
    finally:
        spans.uninstall(rec)
    rec.dump(SCRATCH / f"spans-{name}-seed{seed}.json")
    total, scipy = measure_imports(name, seed, cwd)
    layers = {"cli.import_s": total, "cli.import_scipy_s": scipy}
    layers.update(aggregate([m for m, _ in per_pass]))
    layers["trace.pass_s"] = lower_quartile(traced_s)
    layers["trace.overhead_s"] = lower_quartile(traced_s) - lower_quartile(plain_s)
    return layers, [p for _, p in per_pass], samples(setups, traced_s, "traced", speed)


def samples(setups, pass_s, ops, speed):
    """Summary lines: the raw wall times behind the reported metrics."""
    return [f"wall times: setup_s {len(setups)} {fmt(setups)}; pass_s {len(pass_s)} "
            f"{fmt(pass_s)}; operations {ops}",
            f"host speed: factor {speed.factor:.4g} from {len(speed.samples)} reference "
            f"kernel runs {fmt(speed.samples)} (end-to-end times are wall times x factor)"]


def fmt(values):
    return "[" + " ".join(f"{v:.4g}" for v in values) + "]"


def aggregate(per_pass):
    """Median over passes of each per-layer metric (absent reads 0)."""
    return {key: median([m.get(key, 0.0) for m in per_pass]) for key in PER_LAYER_UNITS
            if key not in ("cli.import_s", "cli.import_scipy_s", "trace.pass_s",
                           "trace.overhead_s")}


# ----------------------------------------------------------------------
# cli_readme
# ----------------------------------------------------------------------

def written(argv, workdir):
    """{name: bytes} of the files a command wrote: its --out report and the
    side files next to it."""
    if "--out" not in argv:
        return {}
    stem = Path(argv[argv.index("--out") + 1]).stem
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.stem == stem}


def cli_pass(commands, workdir, tally, spans_dir=None, speed=None):
    """Each README command as a fresh process, one after another; with
    ``speed``, the host speed is sampled between commands (not timed)."""
    results = []
    elapsed = 0.0
    for i, argv in enumerate(commands):
        if speed is not None:
            speed.sample(1)
        if spans_dir is None:
            full = [sys.executable, "-m", "tfib.cli", *argv]
        else:
            full = [sys.executable, str(HERE / "launch.py"),
                    str(spans_dir / f"cmd-{i}.json"), "--", *argv]
        t = time.perf_counter()
        try:
            proc = subprocess.run(full, cwd=workdir, env=child_env(), capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, stdout = "timeout", b""
        results.append((argv, code, stdout, time.perf_counter() - t))
        elapsed += results[-1][3]
    reports = []
    for argv, code, stdout, _ in results:
        label = " ".join(argv[:2])
        rep = None
        if code != 0:
            tally.record(label, f"exit status {code}")
        else:
            try:
                out = argv[argv.index("--out") + 1] if "--out" in argv else None
                rep = json.loads((workdir / out).read_text() if out else stdout)
                reasons = workloads.check_cli(argv, rep, workdir)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                reasons = [f"unreadable report: {type(exc).__name__}: {exc}"]
            for reason in reasons:
                tally.record(label, reason)
        reports.append((argv, rep))
    outputs = [(argv, stdout, written(argv, workdir)) for argv, _, stdout, _ in results]
    return elapsed, [r[3] for r in results], reports, outputs


def replay(outputs, replay_dir, tally):
    """Run every command again in this process, same seed, and require
    byte-identical reports and side files."""
    from tfib import cli
    here = os.getcwd()
    os.chdir(replay_dir)
    try:
        for argv, stdout, files in outputs:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    cli.main(list(argv))
            except Exception as exc:  # counted like a crashed command
                tally.record(" ".join(argv[:2]) + " bytes", f"replay raised {exc!r}")
                continue
            same = (buf.getvalue().encode(), written(argv, replay_dir)) == (stdout, files)
            tally.record(" ".join(argv[:2]) + " bytes",
                         None if same else "report bytes differ between passes")
    finally:
        os.chdir(here)


def cli_readme(seed, seconds, trace, tally, work):
    commands = workloads.cli_commands(seed)
    speed = HostSpeed()
    setups = [time_setup("cli_readme", seed, work, speed) for _ in range(SETUP_PROBES)]
    workdir = work / "pass"
    workdir.mkdir()
    elapsed, cmd_s, _, outputs = cli_pass(commands, workdir, tally, speed=speed)
    replay_dir = work / "replay"
    replay_dir.mkdir()
    replay(outputs, replay_dir, tally)
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        k = speed.factor
        return {"setup_s": k * median(setups), "pass_s": k * elapsed,
                "cmd_p50_s": k * median(cmd_s), "peak_rss_mb": rss}, \
            None, samples(setups, [elapsed], f"{len(cmd_s)} commands {fmt(cmd_s)}", speed)
    traced_dir = work / "traced"
    spans_dir = work / "spans"
    traced_dir.mkdir()
    spans_dir.mkdir()
    traced_s, _, reports, traced_outputs = cli_pass(commands, traced_dir, tally, spans_dir)
    for (argv, *first), (_, *again) in zip(outputs, traced_outputs):
        tally.record(" ".join(argv[:2]) + " bytes", None if first == again
                     else "report bytes differ between passes")
    merged, counts = [], Counter()
    for i in range(len(commands)):
        path = spans_dir / f"cmd-{i}.json"
        if not path.exists():  # the command crashed; cli_pass counted it
            continue
        data = json.loads(path.read_text())
        offset = len(merged)
        merged.extend([n, s, e, p + offset if p >= 0 else -1, 0]
                      for n, s, e, p, _ in data["spans"])
        counts.update(data["counts"])
    with open(SCRATCH / f"spans-cli_readme-seed{seed}.json", "w") as fh:
        json.dump({"spans": merged, "counts": dict(counts)}, fh)
    total, scipy = measure_imports("cli_readme", seed, work)
    layers = {"cli.import_s": total, "cli.import_scipy_s": scipy}
    metrics = spans.layer_metrics(merged, counts)
    metrics.update(workloads.cli_margins(reports))
    metrics["trace.spans"] = len(merged)
    layers.update(aggregate([metrics]))
    layers["trace.pass_s"] = traced_s
    layers["trace.overhead_s"] = traced_s - elapsed
    return layers, [merged], samples(setups, [traced_s], "traced", speed)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def layer_table_lines(pass_spans_list, pass_s):
    """Per span name: calls, total and self seconds per pass, and self time
    as a share of the traced pass (the rest is untraced glue)."""
    table = {}
    for part in pass_spans_list:
        for name, row in spans.layer_table(part).items():
            acc = table.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
    n = max(len(pass_spans_list), 1)
    lines = [f"# {'span':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'pass%':>6s}"]
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"# {name:44s} {calls / n:9.0f} {total / n:10.5f} {own / n:10.5f} "
                     f"{100.0 * own / n / pass_s:6.1f}")
    return lines


def run_one(args):
    tally = oracle.Tally()
    env = environment()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.workload == "cli_readme":
            metrics, traced, notes = cli_readme(args.seed, args.seconds, args.trace,
                                                tally, work)
        else:
            metrics, traced, notes = in_process(args.workload, args.seed, args.seconds,
                                                args.trace, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("# " + note)
    if traced is not None:
        print("\n".join(layer_table_lines(traced, metrics["trace.pass_s"])))
    for key in units:
        print(f"# {key:36s} {metrics[key]:.6g} {units[key]}")
    print(f"# fail_ratio {tally.fail_ratio:.6g} ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def run_all(args):
    """Each workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} failed:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=tuple(workloads.IN_PROCESS),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "tfib" / "cli.py").is_file():
        sys.stderr.write(f"error: no tfib sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TFIB_THREADS", None)
    if args.probe:
        workloads.IN_PROCESS[args.probe]().setup(args.seed)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
