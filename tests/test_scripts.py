"""Smoke tests: the experiment scripts and README's library example run end to end."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperproj.cli import blas_info, main
from hyperproj.dataset import SPLIT_CACHE_VERSION, build_dataset
from hyperproj.embeddings import CACHE_VERSION
from hyperproj.evaluation import evaluate
from hyperproj.projection import Regularizer
from hyperproj.synth import SynthConfig, make_fixture
from hyperproj.training import TrainConfig, train

ROOT = Path(__file__).resolve().parents[1]
# golden_digests.py's output per (numpy major version, OpenBLAS kernel set)
GOLDEN = ROOT / "tests" / "golden"


def run_script(script, *args, **env_vars):
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


GRID = ["--seeds", "1", "2", "--k", "1", "2", "--reg", "none", "neighbor-reproj",
        "--epochs", "5", "--n", "200"]


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """The experiment driver's output for a tiny grid: its stdout and its JSON lines."""
    out = tmp_path_factory.mktemp("experiment") / "runs.jsonl"
    proc = run_script("experiment.py", *GRID, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, [json.loads(line) for line in out.read_text().splitlines()]


def test_experiment_runs_the_grid(grid):
    stdout, rows = grid
    assert [(r["seed"], r["k"], r["reg"]) for r in rows] == [
        (seed, k, reg) for seed in (1, 2) for k in (1, 2) for reg in ("none", "neighbor-reproj")]
    for row in rows:
        for bucket in ("validation", "test"):
            assert len(row[bucket]["hits"]) == 10
            assert len(row[bucket]["ranks"]) == row["fixture"]["n_pairs"] // 10
    table = [line.split() for line in stdout.splitlines()[3:]]
    assert [line[:3] for line in table] == [
        [bucket, k, reg] for bucket in ("validation", "test") for k in ("1", "2")
        for reg in ("none", "neighbor-reproj")]


def test_experiment_agrees_with_the_library(grid):
    row = grid[1][-1]  # seed 2, k 2, neighbor-reproj
    cfg = SynthConfig(dim=10, n_pairs=200, noise=0.05, distractors=20, seed=2,
                      hyper_angle_deg=25.0)
    tc = TrainConfig(epochs=5, lam=0.5, regularizer=Regularizer.NEIGHBOR_REPROJ, k=2, seed=2)
    table, relations = make_fixture(cfg)
    data = build_dataset(relations, table, seed=2)
    report = evaluate(train(data, table, tc), table, data.relations_in("test"), l_max=10)
    assert row["test"] == {"hits": report.hits, "auc": report.auc,
                           "ranks": [p.rank for p in report.per_pair]}


def test_golden_digests_lists_every_output():
    proc = run_script("golden_digests.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), lines
    names = [line[66:] for line in lines]
    # synth 2, split 4, cluster 1, then model, trace, report and per-pair TSV of 7 arms,
    # then predict's output and the train manifests' validation records
    assert len(names) == 2 + 4 + 1 + 7 * 4 + 2
    assert {"fixture/relations.tsv", "split/test.tsv", "clusters.json",
            "neighbor-select.report.json", "neighbor-reproj-batch68.hprj"} <= set(names)
    assert names[-2:] == ["(predict stdout)", "(train validation records)"]
    assert not any(name.endswith("manifest.json") for name in names)
    # the BLAS goes to stderr, ahead of anything else there, and stays off the digest lines
    first = proc.stderr.splitlines()[0]
    assert first.startswith("blas: ")
    assert json.loads(first[len("blas: "):]) == blas_info()


def test_golden_digests_same_cold_and_warm(tmp_path):
    cache = tmp_path / "cache"
    cold = run_script("golden_digests.py", HYPERPROJ_CACHE=str(cache))
    assert cold.returncode == 0, cold.stderr
    # one fixture table and the one split every command binds to it, each parsed once
    assert sorted(path.name.split("-", 1)[1] for path in cache.iterdir()) == [
        f"{SPLIT_CACHE_VERSION}.hpsplit", f"{CACHE_VERSION}.hptab"]
    warm = run_script("golden_digests.py", HYPERPROJ_CACHE=str(cache))
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    blas = json.loads(cold.stderr.splitlines()[0][len("blas: "):])
    golden = GOLDEN / f"{np.__version__.split('.')[0]}-{blas and blas['core']}.txt"
    if not golden.is_file():
        pytest.skip(f"no {golden.relative_to(ROOT)}: the output bytes of numpy "
                    f"{np.__version__} with BLAS {blas} were never pinned")
    assert cold.stdout == golden.read_text(encoding="utf-8")


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
