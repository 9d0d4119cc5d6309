"""The benchmark's own self-test, run as part of the test suite.

`benchmarks/selftest.py` checks that the benchmark's answer checks and
visit audit are live; among them, that the crystal-graph BFS still calls
f_abacus and that enumeration still filters candidates.  Running it here
makes a change that breaks those preconditions fail the tests too.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "selftest.py")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
