"""Guard for the benchmark's own output checks.

``bench/selftest.py`` runs one operation of each workload and plants
faults that the workload's checks must flag. A library change that makes
a check reject correct output, or miss a planted fault, fails here. It
runs with ``-B``, so no bytecode is written under ``bench/``; its output
goes to the ignored ``.bench_out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_flags_every_planted_fault():
    done = subprocess.run(
        [sys.executable, "-B", "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "every planted fault was flagged" in done.stdout.splitlines(), done.stdout
