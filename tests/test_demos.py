import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -W error: pyproject's filterwarnings do not reach a subprocess
    result = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
