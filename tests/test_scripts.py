"""Smoke tests: the experiment scripts run end to end on a tiny budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("regularizer_benchmark.py", ["--seeds", "1", "--epochs", "5", "--n", "200"]),
    ("cluster_sweep.py", ["--k-values", "1", "2", "--epochs", "5", "--n", "200"]),
], ids=["regularizer_benchmark", "cluster_sweep"])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
