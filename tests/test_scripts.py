"""Smoke tests: the experiment scripts and README's library example run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperproj.cli import main

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


def test_readme_library_use_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    # the fixture of the README's command-line walkthrough
    assert main(["synth", "--d", "10", "--n", "1000", "--noise", "0.05", "--distractors", "5",
                 "--hyper-angle", "25", "--seed", "7", "--out", "fixture"]) == 0
    namespace = {"__name__": "readme"}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["report"].hits) == 10
