"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; the synthetic fixtures stand in
for the corpus-scale datasets, so the criteria are property checks and
trend reproductions rather than headline-number matches.
"""

import time

import numpy as np

from hyperproj.clustering import fit_kmeans
from hyperproj.cli import main as cli_main
from hyperproj.dataset import BUCKETS, RelationPair, build_dataset, lexical_split
from hyperproj.embeddings import EmbeddingTable
from hyperproj.evaluation import auc, evaluate, hit_at
from hyperproj.projection import Regularizer, loss_terms_and_gradient
from hyperproj.synth import SynthConfig, make_fixture
from hyperproj.training import TrainConfig, train

from conftest import central_difference, dataset_of, make_model, relations_of, vocabulary

ALL_KINDS = list(Regularizer)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


def hyp(a, b):
    return RelationPair(a, b, "hypernym")


def reference_config(**overrides):
    base = dict(epochs=700, batch_size=1024, k=1, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for kind in ALL_KINDS:
        for d in (2, 5, 10):
            for _ in range(34):  # 102 instances per kind across the three dims
                phi = rng.normal(size=(d, d))
                X, Y, Z = (rng.normal(size=(4, d)) for _ in range(3))
                lam = float(rng.uniform(0.05, 2.0))
                analytic = loss_terms_and_gradient(phi, X, Y, Z, kind, lam)[2]
                numeric = central_difference(phi, X, Y, Z, kind, lam)
                scale = max(1e-8, float(np.abs(numeric).max()))
                worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
                checked += 1
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-4 and elapsed < 10.0,
           f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_metric_oracles():
    exact = auc([0.2, 0.3, 0.3]) == 0.55

    rng = np.random.default_rng(102)
    monotone = True
    consistent = True
    for trial in range(100):
        n, d = 8, 3
        X = rng.normal(size=(n, d))
        X /= np.linalg.norm(X, axis=1)[:, None]
        Y = rng.normal(size=(n, d))
        vocab = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
        table = EmbeddingTable(vocab, np.vstack([X, Y]))
        pairs = relations_of([hyp(f"x{i}", f"y{i}") for i in range(n)])
        model = make_model(rng.normal(size=(d, d)))
        rep = evaluate(model, table, pairs, l_max=6)
        monotone &= all(a <= b for a, b in zip(rep.hits, rep.hits[1:]))
        consistent &= all(
            rep.hits[i - 1] == hit_at(model, table, pairs, i) for i in range(1, 7))
    report(2, exact and monotone and consistent,
           f"auc exact={exact}, monotone and hit_at-equal on 100 random evals")


def test_criterion_3_planted_recovery(tmp_path, monkeypatch):
    # the whole pipeline runs through the CLI at its reference default flags
    start = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["synth", "--d", "10", "--n", "1000", "--noise", "0", "--distractors", "0",
         "--seed", "11", "--out", "fix"],
        ["split", "--relations", "fix/relations.tsv", "--seed", "11", "--out", "sp"],
        ["train", "--embeddings", "fix/embeddings.txt", "--split-dir", "sp",
         "--k", "1", "--reg", "none", "--seed", "11", "--out", "model.hprj"],
        ["eval", "--model", "model.hprj", "--embeddings", "fix/embeddings.txt",
         "--test", "sp/test.tsv", "--l-max", "10", "--out", "report.json"],
    ):
        assert cli_main(argv) == 0
    from hyperproj.projection import load_model

    final_loss = load_model(tmp_path / "model.hprj").meta.final_losses[0]
    import json

    hit1 = json.loads((tmp_path / "report.json").read_text())["hits"][0]
    elapsed = time.perf_counter() - start
    report(3, final_loss < 1e-3 and hit1 >= 0.9 and elapsed < 60.0,
           f"train loss {final_loss:.2e}, test hit@1 {hit1:.3f}, {elapsed:.1f}s")


def test_criterion_4_regularizer_trend():
    start = time.perf_counter()
    lam = 0.5  # grid-tuned on fixture seeds 1-5; evaluated here on fresh seeds
    wins = 0
    deltas = []
    for seed in (11, 12, 13, 14, 15):
        cfg = SynthConfig(dim=10, n_pairs=1000, noise=0.05, distractors=20,
                          seed=seed, hyper_angle_deg=25.0, distractor_angle_deg=15.0)
        table, relations = make_fixture(cfg)
        data = build_dataset(relations, table, seed=seed)
        test_pairs = data.relations_in("test")
        base = train(data, table, reference_config(seed=seed))
        neigh = train(data, table, reference_config(
            seed=seed, regularizer=Regularizer.NEIGHBOR_REPROJ, lam=lam))
        b = evaluate(base, table, test_pairs, l_max=10).hits[9]
        n = evaluate(neigh, table, test_pairs, l_max=10).hits[9]
        deltas.append(n - b)
        wins += n > b
    elapsed = time.perf_counter() - start
    detail = (f"hit@10 deltas {['%+.3f' % d for d in deltas]}, wins {wins}/5, "
              f"{elapsed:.0f}s")
    report(4, wins >= 4 and elapsed < 300.0, detail)


def test_criterion_5_reduction_identity():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        phi = rng.normal(size=(d, d))
        X, Y = rng.normal(size=(2, int(rng.integers(1, 9)), d))
        for neighbor, asym in ((Regularizer.NEIGHBOR_REPROJ, Regularizer.ASYMMETRIC_REPROJ),
                               (Regularizer.NEIGHBOR_PLAIN, Regularizer.ASYMMETRIC_PLAIN)):
            _, reg_n, grad_n = loss_terms_and_gradient(phi, X, Y, X.copy(), neighbor, 0.5)
            _, reg_a, grad_a = loss_terms_and_gradient(phi, X, Y, None, asym, 0.5)
            ok &= reg_n == reg_a and np.array_equal(grad_n, grad_a)
    # the dataset-level fallback hands back the hyponym itself
    data = dataset_of([hyp("a", "b")], ["train"], [])
    from hyperproj.dataset import sample_negative

    ok &= sample_negative(data, "a", np.random.default_rng(0)) == "a"
    report(5, ok, "1000 random batches, both re-projection flags, term and gradient bitwise")


def test_criterion_6_kmeans_properties():
    rng = np.random.default_rng(106)
    points = rng.normal(size=(400, 5))
    model = fit_kmeans(points, 6, seed=2)
    trace = model.inertia_trace
    non_increasing = all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))

    single = fit_kmeans(points, 1, seed=0)
    mean_err = float(np.abs(single.centroids[0] - points.mean(axis=0)).max()
                     / np.abs(points.mean(axis=0)).max())
    mean_ok = np.allclose(single.centroids[0], points.mean(axis=0), rtol=1e-10, atol=1e-12)

    left = np.array([-10.0, 0.0]) + 0.1 * rng.normal(size=(60, 2))
    right = np.array([10.0, 0.0]) + 0.1 * rng.normal(size=(60, 2))
    blobs = fit_kmeans(np.vstack([left, right]), 2, seed=4)
    cents = blobs.centroids[np.argsort(blobs.centroids[:, 0])]
    blob_err = max(float(np.linalg.norm(cents[0] - [-10.0, 0.0])),
                   float(np.linalg.norm(cents[1] - [10.0, 0.0])))
    report(6, non_increasing and mean_ok and blob_err < 0.2,
           f"trace monotone, k=1 mean rel err {mean_err:.1e}, blob err {blob_err:.3f}")


def test_criterion_7_end_to_end_determinism(tmp_path, monkeypatch):
    artifacts = []
    for name in ("run1", "run2"):
        base = tmp_path / name
        base.mkdir()
        monkeypatch.chdir(base)
        for argv in (
            ["synth", "--d", "8", "--n", "200", "--noise", "0.02", "--distractors", "2",
             "--seed", "17", "--out", "fix"],
            ["split", "--relations", "fix/relations.tsv", "--seed", "17", "--out", "sp"],
            ["cluster", "--embeddings", "fix/embeddings.txt", "--split-dir", "sp",
             "--k", "3", "--seed", "17", "--out", "clusters.json"],
            ["train", "--embeddings", "fix/embeddings.txt", "--split-dir", "sp",
             "--k", "3", "--clusters", "clusters.json", "--reg", "neighbor-reproj",
             "--lambda", "0.5", "--epochs", "40", "--seed", "17", "--out", "model.hprj"],
            ["eval", "--model", "model.hprj", "--embeddings", "fix/embeddings.txt",
             "--test", "sp/test.tsv", "--out", "report.json"],
        ):
            assert cli_main(argv) == 0
        artifacts.append(((base / "model.hprj").read_bytes(),
                          (base / "report.json").read_bytes()))
    ok = artifacts[0] == artifacts[1]
    report(7, ok, "split->cluster->train->eval twice, model and report bytes equal")


def test_criterion_8_lexical_split_at_scale():
    rng = np.random.default_rng(108)
    pairs = []
    # mix of isolated pairs and small shared-word chains
    for i in range(9000):
        pairs.append(hyp(f"s{i}", f"t{i}"))
    for i in range(500):
        pairs.append(hyp(f"c{i}a", f"c{i}b"))
        pairs.append(hyp(f"c{i}b", f"c{i}c"))
    buckets = lexical_split(relations_of(pairs), (0.8, 0.1, 0.1), seed=31)
    assignment = [BUCKETS[b] for b in buckets.tolist()]
    data = dataset_of(pairs, assignment, [])
    vocabs = {b: vocabulary(data, b) for b in BUCKETS}
    disjoint = (not (vocabs["train"] & vocabs["validation"])
                and not (vocabs["train"] & vocabs["test"])
                and not (vocabs["validation"] & vocabs["test"]))
    n = len(pairs)
    fracs = {b: assignment.count(b) / n for b in BUCKETS}
    within = (abs(fracs["train"] - 0.8) <= 0.02 and abs(fracs["validation"] - 0.1) <= 0.02
              and abs(fracs["test"] - 0.1) <= 0.02)
    report(8, disjoint and within,
           f"{n} pairs, fractions {fracs['train']:.3f}/{fracs['validation']:.3f}/"
           f"{fracs['test']:.3f}, disjoint={disjoint}")


def test_criterion_9_asymmetry_effect():
    cfg = SynthConfig(dim=10, n_pairs=1000, noise=0.0, distractors=0, seed=11)
    table, relations = make_fixture(cfg)
    data = build_dataset(relations, table, seed=11)
    X, Y = table.vectors[data.relations_in("train").ids.T]
    base = train(data, table, reference_config())
    asym = train(data, table, reference_config(
        regularizer=Regularizer.ASYMMETRIC_REPROJ, lam=0.1))

    def score(model):  # the package loss's regularizer term; any lam > 0 gives the same
        return loss_terms_and_gradient(model.matrices[0], X, Y, None,
                                       Regularizer.ASYMMETRIC_REPROJ, 1.0)[1]

    score_base, score_asym = score(base), score(asym)
    report(9, score_asym < score_base,
           f"mean (x phi phi . x)^2: baseline {score_base:.3e} vs "
           f"regularized {score_asym:.3e}")
