"""Self-tests of the benchmark: tiny-scale smoke runs, output checks, tracer.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hyperproj
import checks
import pipeline
from tracing import HOOKS, Hook, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: pipeline.Workload) -> pipeline.Workload:
    """The same steps on 60 planted pairs and 3 epochs (the last flag wins)."""
    return dataclasses.replace(
        workload, synth=(*workload.synth, "--n", "60"),
        arms=tuple((*arm, "--epochs", "3") for arm in workload.arms),
        hit10_floor=0.0)


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(pipeline.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == pipeline.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == pipeline.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    out = pipeline.run(tiny(pipeline.WORKLOADS[name]), 1, 0.0, bool(trace), tmp_path)
    result = out["result"]
    assert result["correct"], out["record"]["problems"]
    assert result["failed"] == 0
    # each CLI command and each predict query is one operation
    arms = len(pipeline.WORKLOADS[name].arms)
    synths = [1, 1] if trace else [pipeline.SETUP_REPEATS]
    assert result["attempted"] == sum(n + 2 + 2 * arms + pipeline.PREDICT_QUERIES for n in synths)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.missing_hooks"]["value"] == 0
        assert metrics["evaluation.predict_candidates.calls"]["value"] == pipeline.PREDICT_QUERIES
        assert metrics["training.train.calls"]["value"] == arms
        assert metrics["cli.train.train_s"]["value"] > 0
        if name == "desk-select":
            assert metrics["training.validation.calls"]["value"] == arms
            assert metrics["embeddings.nearest_neighbors.validation_share"]["value"] > 0
        else:
            assert metrics["training.validation.calls"]["value"] == 0


def test_end_to_end_sums_each_operations_fastest_time():
    samples = {"setup": [0.3, 0.2, 0.6], "split": [0.5, 0.1], "train0": [2.0, 3.0],
               "train1": [1.5, 1.0], "eval0": [0.4, 0.6],
               **{f"predict{q}": [0.002 + q * 1e-5, 0.009] for q in range(100)}}
    m = pipeline.end_to_end(samples)
    assert m["setup_s"] == 0.3
    assert m["train_s"] == pytest.approx(3.0)
    assert m["eval_s"] == pytest.approx(0.4)
    assert m["pipeline_s"] == pytest.approx(0.1 + 3.0 + 0.4 + sum(
        0.002 + q * 1e-5 for q in range(100)))
    assert m["predict_p50_ms"] == pytest.approx(2.495)
    assert m["predict_p90_ms"] == pytest.approx(2.891)


def _report(**changes):
    hits = [0.5, 0.6, 0.7, 0.8, 0.8, 0.85, 0.9, 0.9, 0.95, 1.0]
    report = {"hits": hits, "l_max": 10, "n_pairs": 20, "skips": 0,
              "auc": 0.5 * sum(a + b for a, b in zip(hits, hits[1:]))}
    report.update(changes)
    return report


def test_check_report_accepts_a_valid_report():
    checks.check_report(_report(), n_test=20, hit10_floor=0.9)


@pytest.mark.parametrize("changes", [
    {"hits": [0.5, 0.4, 0.7, 0.8, 0.8, 0.85, 0.9, 0.9, 0.95, 1.0]},  # decreasing
    {"hits": [0.5, 0.6, 0.7, 0.8, 0.8, 0.85, 0.9, 0.9, 0.95, 1.5]},  # above 1
    {"hits": [0.5] * 9, "l_max": 9},
    {"auc": 1.0},
    {"n_pairs": 19},
    {"skips": 1},
], ids=["decreasing", "out-of-range", "short", "auc", "n_pairs", "skips"])
def test_check_report_rejects_a_corrupted_report(changes):
    report = _report(**changes)
    if "hits" in changes and "auc" not in changes:
        report["auc"] = 0.5 * sum(a + b for a, b in zip(report["hits"], report["hits"][1:]))
    with pytest.raises(checks.CheckError):
        checks.check_report(report, n_test=20, hit10_floor=0.0)


def test_check_report_enforces_the_quality_floor():
    with pytest.raises(checks.CheckError, match="floor"):
        checks.check_report(_report(), n_test=20, hit10_floor=1.01)


@pytest.mark.parametrize("candidates", [
    [("b", 0.9)] * 9,
    [("a", 0.9)] + [("b", 0.8)] * 9,
    [("b", 0.1)] + [("c", 0.8)] * 9,
], ids=["count", "query", "order"])
def test_check_candidates_rejects_bad_answers(candidates):
    with pytest.raises(checks.CheckError):
        checks.check_candidates("a", candidates, 10)


def test_manifest_check_catches_a_changed_output(tmp_path):
    out = tmp_path / "model.bin"
    out.write_bytes(b"model")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"outputs": {str(out): checks.sha256(out)}}))
    checks.verify_manifest(manifest)
    out.write_bytes(b"tampered")
    with pytest.raises(checks.CheckError, match="SHA-256"):
        checks.verify_manifest(manifest)


def test_a_wrong_report_counts_as_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(hyperproj.evaluation, "auc", lambda hits: -1.0)
    wl = tiny(pipeline.WORKLOADS["desk-sweep"])
    result = pipeline.run(wl, 1, 0.0, False, tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] == len(wl.arms)  # every eval, nothing else


def test_missing_hook_is_reported_and_the_run_goes_on(tmp_path, monkeypatch):
    # a later change may delete a hooked function; training keeps its own reference
    monkeypatch.delattr(hyperproj.dataset, "sample_negative")
    monkeypatch.setattr(pipeline, "HOOKS", [*HOOKS, Hook("embeddings.gone", "embeddings", "gone"),
                                            Hook("cli.Gone.method", "cli", "Gone.method")])
    result = pipeline.run(tiny(pipeline.WORKLOADS["desk-sweep"]), 1, 0.0, True, tmp_path)["result"]
    assert result["correct"]
    assert result["metrics"]["trace.missing_hooks"]["value"] == 3
    assert result["metrics"]["dataset.sample_negative.calls"]["value"] == 0


def test_tracer_restores_the_package_and_computes_self_time():
    original = hyperproj.evaluation.nearest_neighbors
    tracer = Tracer("t")
    with tracer.installed(HOOKS):
        assert hyperproj.evaluation.nearest_neighbors is not original
        assert hyperproj.evaluation.nearest_neighbors.__wrapped__ is original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert hyperproj.evaluation.nearest_neighbors is original
    outer, inner = tracer.spans
    assert inner.parent == outer.id and inner.run == outer.run == "t"
    selfs = tracer.self_times()
    assert selfs["outer"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
