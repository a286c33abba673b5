"""The benchmark's self-test, ``perfbench/selftest.py``, must pass on this
checkout.  It fails when a refactor renames a function that the benchmark's
tracer wraps (``perfbench/spans.py``'s ``TARGETS``) or changes an output
that the benchmark's checks read.  It takes about 5 s and writes only under
the git-ignored ``.perfbench/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
