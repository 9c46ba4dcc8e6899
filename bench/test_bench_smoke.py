"""The benchmark's smoke mode: every workload at tiny sizes, in a few seconds."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_mode_passes_on_every_workload():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary == {
        "correct": True,
        "spec_current": True,
        "workloads": {"equality": True, "signatures": True},
    }
