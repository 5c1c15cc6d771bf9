"""Smoke run of the step benchmark: every workload shape at minimal size.

The benchmark's tracing patches mcdyn's layer functions under the names
their callers look them up by, so this fails when a refactor stops
routing calls through those names.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stepbench_smoke():
    proc = subprocess.run(
        [sys.executable, "stepbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed = [line for line in proc.stdout.splitlines() if line.endswith(": PASS")]
    assert len(passed) == 3, proc.stdout
