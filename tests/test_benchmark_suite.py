"""The benchmark's own tests pass against this source tree.

They pin contracts of the benchmark's probes that the tests here do not,
such as the diagnosis calling ``springer_count`` once per closed element it
examines, so every change to ``src/`` must keep them green.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    # 18 today; nothing may fail, error or be skipped
    assert re.fullmatch(r"(\d+) passed in [\d.]+s( \(.*\))?", summary), summary
    assert int(summary.split()[0]) >= 18
