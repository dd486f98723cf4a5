"""Smoke test: every demo runs to completion on a small budget, in a
scratch working directory so that nothing it writes lands in the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("single_run.py", ["--budget", "2000"]),
    ("transfer_matrix.py", ["--budget", "2000"]),
])
def test_demo_exits_zero(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    if script == "single_run.py":  # each snapshot once, in run order
        lines = proc.stdout.splitlines()
        start = next(k for k, line in enumerate(lines) if line.split()[:1] == ["evals"]) + 1
        evals = [int(line.split()[0]) for line in lines[start:lines.index("", start)]]
        assert evals == sorted(set(evals)) and evals[-1] == int(args[1]), proc.stdout
