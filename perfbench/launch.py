"""Run one tfib CLI command with the layer wrappers of ``spans.py`` installed.

    python3 perfbench/launch.py SPANS_JSON -- <tfib arguments>

Used by the traced ``cli_readme`` run: imports ``tfib.cli``, wraps the
layers, runs ``tfib.cli.main(argv)`` inside a ``cli.main`` span, writes the
spans and counters to SPANS_JSON and exits with the command's status.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from tfib import cli, zlat  # noqa: E402


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: launch.py SPANS_JSON -- <tfib arguments>\n")
        return 2
    rec = spans.install(spans.Recorder())
    span = rec.open("cli.main")
    try:
        return cli.main(argv[2:])
    finally:
        rec.close(span)
        spans.uninstall(rec)
        rec.counts["zlat.conj.cache_misses"] = zlat._conjugator_cached.cache_info().misses
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
