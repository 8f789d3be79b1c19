import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_check_passes():
    # the benchmark harness reads parse_trials, ScoreSet iteration and the
    # det_points records, so a change to those fails here as well
    result = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
