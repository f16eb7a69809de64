"""Smoke tests: the experiment scripts and README's library example run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperproj.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args, **env_vars):
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("regularizer_benchmark.py", ["--seeds", "1", "--epochs", "5", "--n", "200"]),
    ("cluster_sweep.py", ["--k-values", "1", "2", "--epochs", "5", "--n", "200"]),
], ids=["regularizer_benchmark", "cluster_sweep"])
def test_script_runs(script, args):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr


def test_golden_digests_lists_every_output():
    proc = run_script("golden_digests.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), lines
    names = [line[66:] for line in lines]
    # synth 2, split 5, cluster 1, then model, trace, report and per-pair TSV of 7 arms
    assert len(names) == 2 + 5 + 1 + 7 * 4 + 1
    assert {"fixture/relations.tsv", "split/test.tsv", "clusters.json",
            "neighbor-select.report.json", "neighbor-reproj-batch68.hprj",
            "(predict stdout)"} <= set(names)
    assert not any(name.endswith("manifest.json") for name in names)


def test_golden_digests_same_cold_and_warm(tmp_path):
    cache = tmp_path / "cache"
    cold = run_script("golden_digests.py", HYPERPROJ_CACHE=str(cache))
    assert cold.returncode == 0, cold.stderr
    assert len(list(cache.iterdir())) == 1  # one fixture, parsed once
    warm = run_script("golden_digests.py", HYPERPROJ_CACHE=str(cache))
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout


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
