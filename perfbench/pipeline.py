"""Workloads and runner for the hyperproj benchmark.

Each workload drives the real CLI pipeline inside this process by calling
``hyperproj.cli.main(argv)`` for synth, split, cluster, train and eval,
then issues predict queries through ``evaluation.predict_candidates`` with
the table and each model loaded once. The load is a closed loop with one
client: every step starts after the previous one ends. Every CLI command
and every predict query is one operation; a non-zero exit, an exception
or a failed output check counts it as failed.

Timings are taken from outside each call. The traced mode runs an
untraced and a traced iteration back to back, so the tracing overhead is
measured against the untraced run on the same inputs.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hyperproj import cli, embeddings, evaluation, projection

import checks
from tracing import HOOKS, LAYERS, Tracer

PREDICT_L = 10
PREDICT_QUERIES = 100  # per iteration, spread over the arms
K = 4
SETUP_REPEATS = 2  # synth runs per untraced iteration; setup_s is the median of all

DESK = ("--d", "10", "--n", "1000", "--noise", "0.05", "--distractors", "5",
        "--hyper-angle", "25")
REGS = ("none", "asym", "asym-reproj", "neighbor", "neighbor-reproj")
SELECT = ("--select-on", "best_validation_hit10")


@dataclass(frozen=True)
class Workload:
    """A fixture plus the train arms run on it.

    Every arm is trained with K clusters from one ``cluster`` run, then
    evaluated on the test bucket and queried with predict.
    """

    name: str
    synth: tuple[str, ...]
    arms: tuple[tuple[str, ...], ...]
    hit10_floor: float


# Every iteration of a run samples the host's speed at another moment. On a
# shared 2-vCPU host that speed drifts by 10-40% over seconds and minutes,
# and each operation's time is the fastest of its repeats, so the desk
# workloads train fewer epochs at a larger step: 200 epochs at alpha 0.005
# and 100 at 0.01 reach the hit@10 of 700 at the default 0.001, and a run
# holds many short iterations instead of three or four long ones.
WORKLOADS = {
    # per-epoch Python work dominates: negative sampling, row lookups, small GEMMs, Adam
    "desk-sweep": Workload(
        "desk-sweep", DESK,
        tuple(("--reg", reg, "--lambda", "0.5", "--epochs", "200", "--alpha", "0.005")
              for reg in REGS), hit10_floor=0.5),
    # ranking runs inside training: a validation check of 100 pairs every 10 epochs;
    # the baseline arm keeps the epoch loop a small share of train_s
    "desk-select": Workload(
        "desk-select", DESK, (("--reg", "none", "--epochs", "100", "--alpha", "0.01", *SELECT),),
        hit10_floor=0.5),
}

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "train_s": "s", "eval_s": "s",
    "predict_p50_ms": "ms", "predict_p90_ms": "ms", "peak_rss_mb": "MB",
}

# cli.<command>.<stage>_s metrics, read from the manifests' own stage timer
CLI_STAGES = {
    "synth": ("generate", "write", "total"),
    "split": ("load", "split", "write", "total"),
    "cluster": ("load_embeddings", "load_relations", "fit", "total"),
    "train": ("load_embeddings", "load_relations", "train", "write", "total"),
    "eval": ("load", "evaluate", "write", "total"),
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for hook in HOOKS:
        units[f"{hook.name}.calls"] = "count"
        units[f"{hook.name}.s"] = "s"
    units.update({
        "embeddings.nearest_neighbors.flops_computed": "flop",
        "embeddings.nearest_neighbors.bytes_computed": "B",
        "embeddings.nearest_neighbors.useful_ratio": "ratio",
        "embeddings.nearest_neighbors.self_share": "ratio",
        "embeddings.nearest_neighbors.validation_share": "ratio",
        "dataset.sample_negative.fallback_ratio": "ratio",
        "clustering.fit_kmeans.iters": "count",
        "training.train.self_s": "s",
        "training.validation.share": "ratio",
        "evaluation.evaluate.self_s": "s",
        "evaluation.evaluate.pairs": "count",
        "quality.hit1": "fraction", "quality.hit10": "fraction", "quality.auc": "area",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for command, stages in CLI_STAGES.items():
        for stage in stages:
            units[f"cli.{command}.{stage}_s"] = "s"
    units.update({
        "trace.untraced_pipeline_s": "s", "trace.traced_pipeline_s": "s",
        "trace.slowdown": "ratio", "trace.spans": "count", "trace.missing_hooks": "count",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def _hypernym_rows(path: Path) -> list[tuple[str, str]]:
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    return [(r[0], r[1]) for r in rows if len(r) >= 3 and r[2] == "hypernym"]


class Runner:
    """Runs a workload's steps and accounts for every operation."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None
        self.step_times: list = []
        # untraced seconds of each operation, by a key that names the same
        # operation in every iteration: "setup", "train2", "predict17", ...
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.fixture_digests: list[str] | None = None

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def _sample(self, key: str, seconds: float) -> None:
        if self.tracer is None:
            self.samples[key].append(seconds)

    def cli(self, key: str, argv: list[str], manifest: Path, stages: dict | None = None,
            check=None) -> float:
        """One CLI command as one operation; returns its wall time.

        On success the manifest's outputs are re-hashed, ``check`` runs,
        and the manifest's stage timings are added to ``stages``.
        """
        self.attempted += 1
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with self._span(f"cli.{argv[0]}"), redirect_stdout(out):
                rc = cli.main(argv)
        except Exception:  # a crash is one failed operation; the run goes on
            traceback.print_exc()
            rc = "exception"
        seconds = perf_counter() - t0
        self.step_times.append((argv[0], seconds))
        self._sample(key, seconds)
        if rc != 0:
            self._fail(f"{argv[0]}: exit {rc}")
            return seconds
        try:
            payload = checks.verify_manifest(manifest)
            if check is not None:
                check()
        except checks.CheckError as exc:
            self._fail(f"{argv[0]}: {exc}")
            return seconds
        if stages is not None:
            for stage, secs in payload["timings"].items():
                stages[f"{argv[0]}.{stage}"] += secs
        return seconds

    def setup(self, d: Path, repeats: int, stages: dict) -> tuple[Path, list[float]]:
        """Generate and write the fixture ``repeats`` times; keeps the last copy.

        Every copy in the run must have the same bytes, since the seed is the same.
        """
        times: list[float] = []
        synth_stages: dict[str, float] = defaultdict(float)
        for i in range(repeats):
            out = d / f"fixture{i}"
            manifest = out / "manifest.json"
            times.append(self.cli("setup", ["synth", *self.wl.synth, "--seed", str(self.seed),
                                   "--out", str(out)], manifest, synth_stages))
            if manifest.is_file():
                got = sorted(json.loads(manifest.read_text())["outputs"].values())
                if self.fixture_digests is not None and got != self.fixture_digests:
                    self._fail("synth: same seed wrote different bytes")
                self.fixture_digests = got
            if i:
                shutil.rmtree(d / f"fixture{i - 1}", ignore_errors=True)
        for key, secs in synth_stages.items():
            stages[key] += secs / repeats
        return out, times

    def iteration(self, index: int, setup_repeats: int) -> dict:
        """Set-up, then split, cluster and per arm: train, predict, eval, predict.

        The set-up repeats at the start of every iteration, so its samples
        come from the whole run. The predict queries (the first test-bucket
        hyponyms, in file order) are spread over the arms and around each
        eval, each arm's model loaded once and the table loaded once per
        iteration, so that latency samples also come from the whole
        iteration rather than one short burst.
        """
        wl, seed = self.wl, str(self.seed)
        d = self.work / f"it{index}"
        d.mkdir(parents=True)
        stages: dict[str, float] = defaultdict(float)
        fixture, setup_s = self.setup(d, setup_repeats, stages)
        emb = str(fixture / "embeddings.txt")
        rec = {"setup_s": setup_s, "train_s": 0.0, "eval_s": 0.0, "predict_ms": [],
               "reports": [], "stages": stages}
        split, clusters = d / "split", d / "clusters.json"

        steps = self.cli("split", ["split", "--relations", str(fixture / "relations.tsv"),
                          "--seed", seed, "--out", str(split)],
                         split / "manifest.json", stages)
        test_path = split / "test.tsv"
        test_pairs = _hypernym_rows(test_path) if test_path.is_file() else []
        steps += self.cli("cluster", ["cluster", "--embeddings", emb, "--split-dir", str(split),
                           "--k", str(K), "--seed", seed, "--out", str(clusters)],
                          d / "clusters.json.manifest.json", stages)
        table, secs = self._load("load_table", lambda: embeddings.load_embeddings(emb))
        steps += secs
        hyponyms = list(dict.fromkeys(src for src, _ in test_pairs)) or ["<no test pairs>"]
        words = [hyponyms[i % len(hyponyms)] for i in range(PREDICT_QUERIES)]
        for i, arm in enumerate(wl.arms):
            model = d / f"model{i}.hprj"
            secs = self.cli(f"train{i}", ["train", "--embeddings", emb, "--split-dir", str(split),
                             "--k", str(K), "--clusters", str(clusters), *arm,
                             "--seed", seed, "--out", str(model)],
                            d / f"model{i}.hprj.manifest.json", stages)
            rec["train_s"] += secs
            # this arm's share of the queries: half before its eval, half after
            lo, hi = i * len(words) // len(wl.arms), (i + 1) * len(words) // len(wl.arms)
            mid = (lo + hi) // 2
            loaded, secs = self._load(f"load_model{i}", lambda: projection.load_model(model))
            steps += secs + self._queries(loaded, table, words, range(lo, mid), rec["predict_ms"])
            report = d / f"report{i}.json"

            def check_eval(report=report, arm=arm):
                payload = json.loads(report.read_text(encoding="utf-8"))
                checks.check_report(payload, len(test_pairs), wl.hit10_floor)
                rec["reports"].append({"arm": " ".join(arm), "hits": payload["hits"],
                                       "auc": payload["auc"]})

            secs = self.cli(f"eval{i}", ["eval", "--model", str(model), "--embeddings", emb,
                             "--test", str(test_path), "--out", str(report)],
                            d / f"report{i}.json.manifest.json", stages, check_eval)
            rec["eval_s"] += secs
            steps += self._queries(loaded, table, words, range(mid, hi), rec["predict_ms"])
        rec["pipeline_s"] = steps + rec["train_s"] + rec["eval_s"]
        shutil.rmtree(d, ignore_errors=True)
        return rec

    def _load(self, key: str, load):
        """Load the table or a model for the predict queries; None if that fails."""
        t0 = perf_counter()
        try:
            with self._span("bench.predict_load"):
                loaded = load()
        except Exception:  # the queries that need it then fail one by one
            traceback.print_exc()
            loaded = None
        seconds = perf_counter() - t0
        self._sample(key, seconds)
        return loaded, seconds

    def _queries(self, model, table, words: list[str], which: range,
                 latencies_ms: list) -> float:
        """One predict operation per query index; returns the time they took."""
        total = 0.0
        for q in which:
            word = words[q]
            self.attempted += 1
            t0 = perf_counter()
            try:
                cands = evaluation.predict_candidates(model, table, word, PREDICT_L)
            except Exception as exc:  # one failed query
                self._fail(f"predict {word}: {type(exc).__name__}: {exc}")
                continue
            secs = perf_counter() - t0
            total += secs
            latencies_ms.append(secs * 1e3)
            self._sample(f"predict{q}", secs)
            try:
                checks.check_candidates(word, cands, PREDICT_L)
            except checks.CheckError as exc:
                self._fail(f"predict {exc}")
        return total


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _percentile(values: list[float], q: int) -> float:
    """Linear-interpolated q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def end_to_end(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each operation's fastest time over the run's iterations, summed per metric.

    Other tenants of the host only ever slow an operation down, and by an
    amount that changes from second to second, so the fastest of an
    operation's repeats varies far less between runs than their median.
    Latency percentiles are taken over the queries, each at its fastest.
    Set-up time is the median of every set-up in the run.
    """
    best = {key: min(times) for key, times in samples.items()}

    def total(prefix: str) -> float:
        return sum(t for key, t in best.items() if key.startswith(prefix))

    latencies = [t * 1e3 for key, t in best.items() if key.startswith("predict")]
    return {
        "setup_s": _median(samples.get("setup", [])),
        "pipeline_s": sum(t for key, t in best.items() if key != "setup"),
        "train_s": total("train"),
        "eval_s": total("eval"),
        "predict_p50_ms": _percentile(latencies, 50),
        "predict_p90_ms": _percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer: Tracer, rec: dict) -> dict[str, float]:
    """Per-layer numbers from one traced iteration."""
    stats = tracer.stats
    out: dict[str, float] = {}
    for hook in HOOKS:
        out[f"{hook.name}.calls"] = stats[hook.name].calls
        out[f"{hook.name}.s"] = stats[hook.name].seconds
    selfs = tracer.self_times()
    total = sum(selfs.values())
    nn = stats["embeddings.nearest_neighbors"]
    train_s = stats["training.train"].seconds
    sampled = stats["dataset.sample_negative"]
    out.update({
        "embeddings.nearest_neighbors.flops_computed": nn.extra["flops_computed"],
        "embeddings.nearest_neighbors.bytes_computed": nn.extra["bytes_computed"],
        "embeddings.nearest_neighbors.useful_ratio":
            nn.extra["entries_returned"] / nn.extra["rows_sorted"] if nn.calls else 0.0,
        "embeddings.nearest_neighbors.self_share":
            selfs.get("embeddings.nearest_neighbors", 0.0) / total if total else 0.0,
        "embeddings.nearest_neighbors.validation_share":
            tracer.time_under("embeddings.nearest_neighbors", "training.validation")
            / nn.seconds if nn.seconds else 0.0,
        "dataset.sample_negative.fallback_ratio":
            sampled.extra["fallbacks"] / sampled.calls if sampled.calls else 0.0,
        "clustering.fit_kmeans.iters": stats["clustering.fit_kmeans"].extra["iters"],
        "training.train.self_s": selfs.get("training.train", 0.0),
        "training.validation.share":
            stats["training.validation"].seconds / train_s if train_s else 0.0,
        "evaluation.evaluate.self_s": selfs.get("evaluation.evaluate", 0.0),
        "evaluation.evaluate.pairs": stats["evaluation.evaluate"].extra["pairs"],
        # averaged over the workload's models; per-model values go in the record
        "quality.hit1": _mean([r["hits"][0] for r in rec["reports"]]),
        "quality.hit10": _mean([r["hits"][9] for r in rec["reports"]]),
        "quality.auc": _mean([r["auc"] for r in rec["reports"]]),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                     if k.split(".", 1)[0] == layer)
    out["trace.traced_pipeline_s"] = rec["pipeline_s"]
    out["trace.spans"] = len(tracer.spans)
    out["trace.missing_hooks"] = len(tracer.missing)
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; returns the result line plus the full record.

    Untraced, iterations repeat while another one still fits in
    ``seconds`` (at least one runs); each operation's time is its fastest
    over them.
    Traced, each repeat is an untraced iteration followed by a traced one,
    each with a single set-up.
    """
    runner = Runner(workload, seed, work)
    untraced: list[dict] = []
    traced: list[tuple[Tracer, dict]] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        index = len(untraced) + len(traced)
        untraced.append(runner.iteration(index, 1 if trace else SETUP_REPEATS))
        if trace:
            tracer = Tracer(f"{workload.name}-seed{seed}-it{index + 1}")
            runner.tracer = tracer
            with tracer.installed(HOOKS), tracer.span("bench.iteration"):
                traced.append((tracer, runner.iteration(index + 1, 1)))
            runner.tracer = None
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            break

    runs = untraced + [rec for _, rec in traced]
    for rec in runs[1:]:  # same seed, same inputs: every repeat must score the same
        if rec["reports"] != runs[0]["reports"]:
            runner._fail("eval: a repeat of the pipeline reported different quality")

    if trace:
        per_run = [layer_metrics(t, rec) for t, rec in traced]
        metrics = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
        for command, stages in CLI_STAGES.items():
            for stage in stages:
                metrics[f"cli.{command}.{stage}_s"] = _median(
                    [r["stages"].get(f"{command}.{stage}", 0.0) for r in untraced])
        metrics["trace.untraced_pipeline_s"] = _median([r["pipeline_s"] for r in untraced])
        metrics["trace.slowdown"] = (metrics["trace.traced_pipeline_s"]
                                     / metrics["trace.untraced_pipeline_s"])
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(runner.samples)
        units = END_TO_END_UNITS

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "problems": runner.problems,
        "iterations": [{k: r[k] for k in ("setup_s", "pipeline_s", "train_s", "eval_s",
                                          "predict_ms")} for r in untraced],
        "step_times": runner.step_times,
        "samples": runner.samples,
        "quality": runs[0]["reports"],
        "trace": [t.to_json() for t, _ in traced],
        "self_s": [t.self_times() for t, _ in traced],
    }
    return {"result": result, "record": record}
