"""The benchmark harness's self-check, run as a user runs it.

``bench/selfcheck.py`` runs every workload at a tiny size and fails when a
layer the workload exists to exercise is no longer reached, so a program
change that makes the harness lose a layer fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck ok"
