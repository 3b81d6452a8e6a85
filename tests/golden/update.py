"""Rewrite ``tests/golden/readme.json`` from the current code.

Run from the repository root:  python tests/golden/update.py

It runs the README's CLI examples in a temporary directory, as
``tests/test_golden.py`` does, and writes their manifest.  Commit the
rewritten manifest with the change that moved an output, and say why it
moved.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_golden  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        test_golden.write_manifest(workdir)
    print(f"wrote {test_golden.MANIFEST}")
