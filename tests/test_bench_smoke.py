"""The benchmark still runs: ``bench/smoke.py`` at tiny sizes.

It checks that every workload completes correctly in both modes, that the
tracer's wrapped-method list still matches the package, and that span
counts agree with the package's own counters.  It gates nothing on timing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
