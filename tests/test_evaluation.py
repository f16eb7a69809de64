import json

import numpy as np
import pytest

from hyperproj import embeddings
from hyperproj.clustering import assign_cluster
from hyperproj.dataset import RelationPair
from hyperproj.embeddings import EmbeddingTable, nearest_neighbors
from hyperproj.errors import InputError
from hyperproj.evaluation import (
    auc,
    evaluate,
    hit_at,
    predict_candidates,
    write_per_pair_tsv,
    write_report_json,
)

from conftest import make_model


def hyp(a, b):
    return RelationPair(a, b, "hypernym")


class TestAuc:
    def test_hand_trapezoid(self):
        # 0.5 * ((0.2 + 0.3) + (0.3 + 0.3)) = 0.55
        assert auc([0.2, 0.3, 0.3]) == 0.55

    def test_all_ones(self):
        assert auc([1.0] * 10) == 9.0

    def test_all_zeros(self):
        assert auc([0.0] * 10) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(InputError, match="at least 2"):
            auc([0.5])


def rotation_fixture(n=12, d=4, seed=0):
    """Pairs y_i = x_i Q for a planted rotation; the model holds Q exactly."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    Q = q * np.sign(np.diag(r))
    Y = X @ Q
    vocab = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    table = EmbeddingTable(vocab, np.vstack([X, Y]))
    pairs = [hyp(f"x{i}", f"y{i}") for i in range(n)]
    return table, pairs, Q


class TestHitAt:
    def test_perfect_projector(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(Q)
        assert hit_at(model, table, pairs, 1) == 1.0

    def test_zero_matrix_scores_as_misses(self):
        table, pairs, _ = rotation_fixture()
        model = make_model(np.zeros((4, 4)))
        assert hit_at(model, table, pairs, 5) == 0.0

    def test_oov_pairs_skipped(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(Q)
        padded = pairs + [hyp("x0", "missing"), hyp("ghost", "y0")]
        assert hit_at(model, table, padded, 1) == 1.0

    def test_all_pairs_oov_rejected(self):
        table, _, Q = rotation_fixture()
        model = make_model(Q)
        with pytest.raises(InputError, match="no evaluable"):
            hit_at(model, table, [hyp("nope", "also-nope")], 1)


def toy_rank_fixture():
    """Hand-placed vectors: gold is rank 2 for pair 1 and rank 1 for pair 2.

    Query for (x1, y1) is x1 = (1, 0) under the identity projector; w at
    cosine 0.99499 outranks y1 at 0.94868. Query for (x2, y2) is (0, 1);
    y2 scores 0.99499 and outranks everything else.
    """
    table = EmbeddingTable(
        ["x1", "y1", "w", "x2", "y2"],
        np.array([
            [1.0, 0.0],
            [0.9, 0.3],
            [0.995, 0.1],
            [0.0, 1.0],
            [0.1, 0.995],
        ]))
    pairs = [hyp("x1", "y1"), hyp("x2", "y2")]
    return table, pairs


class TestEvaluate:
    def test_toy_curve(self):
        table, pairs = toy_rank_fixture()
        model = make_model(np.eye(2))
        report = evaluate(model, table, pairs, l_max=4)
        assert report.hits[0] == 0.5
        assert report.hits[1] == 1.0
        assert report.hits == [0.5, 1.0, 1.0, 1.0]
        assert report.auc == auc([0.5, 1.0, 1.0, 1.0])
        assert [r.rank for r in report.per_pair] == [2, 1]

    def test_perfect_projector_report(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(Q)
        report = evaluate(model, table, pairs, l_max=10)
        assert report.hits == [1.0] * 10
        assert report.auc == 9.0
        assert all(r.rank == 1 for r in report.per_pair)
        assert report.n_pairs == len(pairs)

    def test_matches_repeated_hit_at_exactly(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            table, pairs, _ = rotation_fixture(n=10, d=3, seed=trial)
            model = make_model(rng.normal(size=(3, 3)))
            report = evaluate(model, table, pairs, l_max=6)
            for i in range(1, 7):
                assert report.hits[i - 1] == hit_at(model, table, pairs, i)

    def test_monotone_hits(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            table, pairs, _ = rotation_fixture(n=15, d=4, seed=100 + trial)
            model = make_model(rng.normal(size=(4, 4)))
            hits = evaluate(model, table, pairs, l_max=8).hits
            assert all(a <= b for a, b in zip(hits, hits[1:]))

    def test_auc_consistent_with_ranks(self):
        rng = np.random.default_rng(7)
        table, pairs, _ = rotation_fixture(n=20, d=4, seed=3)
        model = make_model(rng.normal(size=(4, 4)))
        report = evaluate(model, table, pairs, l_max=10)
        n = report.n_pairs
        rebuilt = [sum(1 for r in report.per_pair if r.rank is not None and r.rank <= i) / n
                   for i in range(1, 11)]
        assert abs(auc(rebuilt) - report.auc) < 1e-12

    def test_skip_accounting(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(Q)
        padded = pairs + [hyp("ghost1", "y0"), hyp("ghost2", "y1")]
        report = evaluate(model, table, padded, l_max=4)
        assert report.n_pairs + report.skips == len(padded)
        assert report.skips == 2

    def test_cluster_assigned_from_gold_offset(self):
        # two clusters: identity for offsets near (0,...), swap for the rest
        table, pairs, Q = rotation_fixture(n=6, d=4, seed=9)
        gold_offsets = np.array(
            [table.vector(p.target) - table.vector(p.source) for p in pairs])
        centroids = np.vstack([gold_offsets[0], -gold_offsets[0]])
        model = make_model(np.stack([Q, np.zeros((4, 4))]), centroids=centroids)
        report = evaluate(model, table, pairs, l_max=4)
        for row, off in zip(report.per_pair, gold_offsets):
            d0 = ((off - centroids[0]) ** 2).sum()
            d1 = ((off - centroids[1]) ** 2).sum()
            assert row.cluster == (0 if d0 <= d1 else 1)


class TestPredictCandidates:
    def test_identity_model_returns_own_neighbors(self):
        table, pairs, _ = rotation_fixture()
        model = make_model(np.eye(4))
        got = predict_candidates(model, table, "x0", 5)
        nn = nearest_neighbors(table, table.vector("x0"), 5, exclude="x0")
        assert got == nn.entries

    def test_merges_over_clusters(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(np.stack([np.eye(4), Q]),
                           centroids=np.zeros((2, 4)))
        got = dict(predict_candidates(model, table, "x0", 3))
        # the Q head ranks y0 at similarity ~1
        assert got["y0"] == pytest.approx(1.0, abs=1e-12)

    def test_oov_word_rejected(self):
        table, _, Q = rotation_fixture()
        with pytest.raises(InputError, match="vocabulary"):
            predict_candidates(make_model(Q), table, "missing", 3)

    @pytest.mark.parametrize("l", [0, -1])
    def test_nonpositive_l_rejected(self, l):
        table, _, Q = rotation_fixture()
        with pytest.raises(InputError, match="l must be >= 1"):
            predict_candidates(make_model(Q), table, "x0", l)


# ---------------------------------------------------------------------------
# the blocked scorer against the per-query scan it replaced
# ---------------------------------------------------------------------------


def oracle_neighbors(table, query, l, exclude=None):
    """One GEMV over the table and a stable argsort of the negated cosines."""
    norms = np.linalg.norm(table.vectors, axis=1)
    usable = norms > 0.0
    scores = np.divide(table.vectors @ query, norms * float(np.linalg.norm(query)),
                       out=np.full(len(table), -np.inf), where=usable)
    if exclude is not None:
        usable[table.lookup(exclude)] = False
        scores[table.lookup(exclude)] = -np.inf
    top = np.argsort(-scores, kind="stable")[: min(l, int(usable.sum()))]
    return [(table.vocab[i], float(scores[i])) for i in top]


def oracle_rank(model, table, pair, l, exclude_self=True):
    """(cluster, rank within the top l or None), one pair at a time."""
    x = table.vector(pair.source)
    cluster = assign_cluster(model.clusters, table.vector(pair.target) - x)
    query = x @ model.matrices[cluster]
    if float(np.linalg.norm(query)) == 0.0:
        return cluster, None
    words = [w for w, _ in oracle_neighbors(
        table, query, l, pair.source if exclude_self else None)]
    return cluster, words.index(pair.target) + 1 if pair.target in words else None


def oracle_predict(model, table, word, l, exclude_self=True):
    """Merge each cluster's top-l list, keeping a word's best score."""
    best = {}
    for phi in model.matrices:
        query = table.vector(word) @ phi
        if float(np.linalg.norm(query)) == 0.0:
            continue
        for cand, score in oracle_neighbors(table, query, l, word if exclude_self else None):
            best[cand] = max(score, best.get(cand, -np.inf))
    order = {w: i for i, w in enumerate(table.vocab)}
    return sorted(best.items(), key=lambda item: (-item[1], order[item[0]]))[:l]


def random_fixture(seed, n_words=60, d=5, k=3, n_pairs=40):
    rng = np.random.default_rng(seed)
    table = EmbeddingTable([f"w{i}" for i in range(n_words)], rng.normal(size=(n_words, d)))
    pairs = []
    while len(pairs) < n_pairs:
        a, b = rng.choice(n_words, size=2, replace=False)
        pairs.append(hyp(f"w{a}", f"w{b}"))
    model = make_model(rng.normal(size=(k, d, d)), centroids=rng.normal(size=(k, d)))
    return table, pairs, model


def assert_matches_oracle(model, table, pairs, l_max, exclude_self=True, words=None):
    report = evaluate(model, table, pairs, l_max=l_max, exclude_self=exclude_self)
    expected = [oracle_rank(model, table, p, l_max, exclude_self) for p in pairs]
    assert [(r.cluster, r.rank) for r in report.per_pair] == expected
    n = len(pairs)
    assert report.hits == [sum(1 for _, r in expected if r is not None and r <= i) / n
                           for i in range(1, l_max + 1)]
    for l in (1, l_max):
        assert hit_at(model, table, pairs, l, exclude_self) == report.hits[l - 1]
    for word in words if words is not None else table.vocab[:10]:
        got = predict_candidates(model, table, word, l_max, exclude_self)
        want = oracle_predict(model, table, word, l_max, exclude_self)
        assert [w for w, _ in got] == [w for w, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], atol=1e-12)


class TestBlockedScorerMatchesOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_fixtures(self, seed):
        table, pairs, model = random_fixture(seed)
        assert_matches_oracle(model, table, pairs, l_max=10)

    def test_planted_ties_go_to_the_lower_index(self):
        # w0 and w3 copy w2, so their cosines with any query are equal; of
        # the two left after self-exclusion, the lower index ranks first
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(8, 3))
        vectors[0] = vectors[3] = vectors[2]
        vectors[6] = vectors[5]
        table = EmbeddingTable([f"w{i}" for i in range(8)], vectors)
        model = make_model(np.eye(3))
        pairs = [hyp("w2", "w0"), hyp("w0", "w2"), hyp("w3", "w2"), hyp("w5", "w6"),
                 hyp("w6", "w5"), hyp("w1", "w2"), hyp("w1", "w3")]
        assert_matches_oracle(model, table, pairs, l_max=8, words=table.vocab)
        ranks = [r.rank for r in evaluate(model, table, pairs, l_max=8).per_pair]
        # gold w0 beats w3, gold w2 beats w3 but not w0, and w5/w6 tie alone
        assert ranks[:5] == [1, 1, 2, 1, 1]
        for l in (1, 2, 3):  # cut-offs inside a tie class
            for word in table.vocab:
                assert predict_candidates(model, table, word, l) == pytest.approx(
                    oracle_predict(model, table, word, l), abs=1e-12)

    def test_zero_norm_vocabulary_rows(self):
        table, pairs, model = random_fixture(21, n_words=30)
        vectors = table.vectors.copy()
        vectors[[3, 7, 8]] = 0.0
        table = EmbeddingTable(table.vocab, vectors)
        pairs += [hyp("w1", "w7"), hyp("w8", "w2")]  # zero gold, zero hyponym
        assert_matches_oracle(model, table, pairs, l_max=10, words=["w0", "w3", "w9"])
        report = evaluate(model, table, pairs, l_max=10)
        assert report.per_pair[-2].rank is None and report.per_pair[-1].rank is None
        assert not {"w3", "w7", "w8"} & {w for w, _ in predict_candidates(model, table, "w0", 30)}

    def test_zero_projection_matrix(self):
        table, pairs, model = random_fixture(31, k=2)
        matrices = model.matrices.copy()
        matrices[1] = 0.0
        model = make_model(matrices, centroids=model.clusters.centroids)
        report = evaluate(model, table, pairs, l_max=10)
        assert {r.cluster for r in report.per_pair} == {0, 1}
        assert all(r.rank is None for r in report.per_pair if r.cluster == 1)
        assert_matches_oracle(model, table, pairs, l_max=10)
        everything_zero = make_model(np.zeros((2, 5, 5)), centroids=model.clusters.centroids)
        assert predict_candidates(everything_zero, table, "w0", 5) == []

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_self_exclusion(self, exclude_self):
        table, pairs, _ = rotation_fixture(n=10, d=4, seed=41)
        model = make_model(np.eye(4))
        self_pairs = pairs + [hyp("x1", "x1")]  # gold equal to the excluded hyponym
        assert_matches_oracle(model, table, self_pairs, l_max=5, exclude_self=exclude_self)
        top = predict_candidates(model, table, "x0", 1, exclude_self)[0][0]
        assert (top == "x0") is not exclude_self

    def test_l_larger_than_the_usable_vocabulary(self):
        table, pairs, model = random_fixture(51, n_words=12, n_pairs=15)
        vectors = table.vectors.copy()
        vectors[4] = 0.0
        table = EmbeddingTable(table.vocab, vectors)
        pairs = [p for p in pairs if "w4" not in (p.source, p.target)]
        assert_matches_oracle(model, table, pairs, l_max=20, words=table.vocab)
        assert len(predict_candidates(model, table, "w0", 50)) == 10  # 12 - zero row - self

    def test_scores_do_not_depend_on_the_block_size(self, monkeypatch):
        table, pairs, model = random_fixture(61, n_words=50, k=4)
        results = []
        for entries in (1, len(table) * len(pairs)):
            monkeypatch.setattr(embeddings, "BLOCK_ENTRIES", entries)
            report = evaluate(model, table, pairs, l_max=10)
            results.append(([r.rank for r in report.per_pair],
                            [predict_candidates(model, table, w, 10) for w in table.vocab]))
        assert results[0] == results[1]


class TestWriters:
    def test_report_json(self, tmp_path):
        table, pairs = toy_rank_fixture()
        report = evaluate(make_model(np.eye(2)), table, pairs, l_max=4)
        path = tmp_path / "report.json"
        write_report_json(report, path, {"note": "toy"})
        payload = json.loads(path.read_text())
        assert payload["hits"] == [0.5, 1.0, 1.0, 1.0]
        assert payload["n_pairs"] == 2
        assert payload["config"] == {"note": "toy"}

    def test_per_pair_tsv(self, tmp_path):
        table, pairs = toy_rank_fixture()
        report = evaluate(make_model(np.zeros((2, 2))), table, pairs, l_max=4)
        path = tmp_path / "pairs.tsv"
        write_per_pair_tsv(report, path)
        lines = path.read_text().splitlines()
        assert lines == ["x1\ty1\t0\t-", "x2\ty2\t0\t-"]
