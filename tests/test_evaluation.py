import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj import embeddings
from hyperproj.clustering import assign_cluster
from hyperproj.dataset import RelationPair
from hyperproj.embeddings import EmbeddingTable
from hyperproj.errors import InputError
from hyperproj.evaluation import (
    _project,
    _rank_pairs,
    auc,
    bind_pairs,
    evaluate,
    hit_at,
    predict_candidates,
    write_per_pair_tsv,
    write_report_json,
)

from conftest import (TILINGS, exact_cosines, make_model, oracle_rank_pairs, pair_queries,
                      relations_of, set_tiling, top_indices)


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
        assert hit_at(model, table, relations_of(pairs), 1) == 1.0

    def test_zero_matrix_scores_as_misses(self):
        table, pairs, _ = rotation_fixture()
        model = make_model(np.zeros((4, 4)))
        assert hit_at(model, table, relations_of(pairs), 5) == 0.0

    def test_oov_pairs_skipped(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(Q)
        padded = pairs + [hyp("x0", "missing"), hyp("ghost", "y0")]
        assert hit_at(model, table, relations_of(padded), 1) == 1.0

    def test_all_pairs_oov_rejected(self):
        table, _, Q = rotation_fixture()
        model = make_model(Q)
        with pytest.raises(InputError, match="no evaluable"):
            hit_at(model, table, relations_of([hyp("nope", "also-nope")]), 1)


class TestBoundPairs:
    def test_bound_pairs_rank_as_the_pairs_do(self, caplog):
        table, pairs, model = random_fixture(71, k=3)
        padded = pairs + [hyp("w0", "missing")]
        with caplog.at_level("WARNING"):
            bound = bind_pairs(model.clusters, table, relations_of(padded))
        assert caplog.text.count("skipped 1 pair") == 1
        assert len(bound.rows) == len(pairs) and bound.skips == 1
        want = evaluate(model, table, relations_of(padded))
        hits = [hit_at(model, table, relations_of(pairs), l) for l in (1, 10)]
        caplog.clear()
        for _ in range(2):  # a bound set is ranked again and again, without a warning
            assert evaluate(model, table, bound) == want
            assert [hit_at(model, table, bound, l) for l in (1, 10)] == hits
        assert "skipped" not in caplog.text
        # another model with the same cluster model ranks the same bound pairs
        other = make_model(model.matrices[::-1], centroids=model.clusters.centroids)
        other.clusters = model.clusters
        assert evaluate(other, table, bound) == evaluate(other, table, relations_of(padded))

    def test_bound_pairs_need_their_table_and_cluster_model(self):
        table, pairs, model = random_fixture(72)
        bound = bind_pairs(model.clusters, table, relations_of(pairs))
        copy = make_model(model.matrices, centroids=model.clusters.centroids)
        with pytest.raises(InputError, match="bound to another"):
            hit_at(copy, table, bound, 10)
        table2 = EmbeddingTable(table.vocab, table.vectors)
        with pytest.raises(InputError, match="bound to another"):
            evaluate(model, table2, bound)

    def test_a_cluster_model_of_another_dimension_is_rejected(self):
        table, pairs, model = random_fixture(73, d=5)
        with pytest.raises(InputError, match="model has dimension 3, embeddings have 5"):
            bind_pairs(make_model(np.eye(3)).clusters, table, relations_of(pairs))


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
        report = evaluate(model, table, relations_of(pairs), l_max=4)
        assert report.hits[0] == 0.5
        assert report.hits[1] == 1.0
        assert report.hits == [0.5, 1.0, 1.0, 1.0]
        assert report.auc == auc([0.5, 1.0, 1.0, 1.0])
        assert [r.rank for r in report.per_pair] == [2, 1]

    def test_perfect_projector_report(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(Q)
        report = evaluate(model, table, relations_of(pairs), l_max=10)
        assert report.hits == [1.0] * 10
        assert report.auc == 9.0
        assert all(r.rank == 1 for r in report.per_pair)
        assert report.n_pairs == len(pairs)

    def test_matches_repeated_hit_at_exactly(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            table, pairs, _ = rotation_fixture(n=10, d=3, seed=trial)
            model = make_model(rng.normal(size=(3, 3)))
            report = evaluate(model, table, relations_of(pairs), l_max=6)
            for i in range(1, 7):
                assert report.hits[i - 1] == hit_at(model, table, relations_of(pairs), i)

    def test_monotone_hits(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            table, pairs, _ = rotation_fixture(n=15, d=4, seed=100 + trial)
            model = make_model(rng.normal(size=(4, 4)))
            hits = evaluate(model, table, relations_of(pairs), l_max=8).hits
            assert all(a <= b for a, b in zip(hits, hits[1:]))

    def test_auc_consistent_with_ranks(self):
        rng = np.random.default_rng(7)
        table, pairs, _ = rotation_fixture(n=20, d=4, seed=3)
        model = make_model(rng.normal(size=(4, 4)))
        report = evaluate(model, table, relations_of(pairs), l_max=10)
        n = report.n_pairs
        rebuilt = [sum(1 for r in report.per_pair if r.rank is not None and r.rank <= i) / n
                   for i in range(1, 11)]
        assert abs(auc(rebuilt) - report.auc) < 1e-12

    def test_skip_accounting(self):
        table, pairs, Q = rotation_fixture()
        model = make_model(Q)
        padded = pairs + [hyp("ghost1", "y0"), hyp("ghost2", "y1")]
        report = evaluate(model, table, relations_of(padded), l_max=4)
        assert report.n_pairs + report.skips == len(padded)
        assert report.skips == 2

    def test_cluster_assigned_from_gold_offset(self):
        # two clusters: identity for offsets near (0,...), swap for the rest
        table, pairs, Q = rotation_fixture(n=6, d=4, seed=9)
        gold_offsets = np.array(
            [table.vector(p.target) - table.vector(p.source) for p in pairs])
        centroids = np.vstack([gold_offsets[0], -gold_offsets[0]])
        model = make_model(np.stack([Q, np.zeros((4, 4))]), centroids=centroids)
        report = evaluate(model, table, relations_of(pairs), l_max=4)
        for row, off in zip(report.per_pair, gold_offsets):
            d0 = ((off - centroids[0]) ** 2).sum()
            d1 = ((off - centroids[1]) ** 2).sum()
            assert row.cluster == (0 if d0 <= d1 else 1)


class TestPredictCandidates:
    def test_identity_model_returns_own_neighbors(self):
        table, pairs, _ = rotation_fixture()
        model = make_model(np.eye(4))
        got = predict_candidates(model, table, "x0", 5)
        idx = table.lookup("x0")
        scores = exact_cosines(table, table.vectors[idx, None], [idx])[0]
        assert got == [(table.vocab[i], float(scores[i])) for i in top_indices(scores, 5)]

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


def oracle_rank(model, table, pair, l):
    """(cluster, rank within the top l or None), one pair at a time."""
    x = table.vector(pair.source)
    cluster = assign_cluster(model.clusters, table.vector(pair.target) - x)
    query = x @ model.matrices[cluster]
    if float(np.linalg.norm(query)) == 0.0:
        return cluster, None
    words = [w for w, _ in oracle_neighbors(table, query, l, pair.source)]
    return cluster, words.index(pair.target) + 1 if pair.target in words else None


def oracle_predict(model, table, word, l):
    """Merge each cluster's top-l list, keeping a word's best score."""
    best = {}
    for phi in model.matrices:
        query = table.vector(word) @ phi
        if float(np.linalg.norm(query)) == 0.0:
            continue
        for cand, score in oracle_neighbors(table, query, l, word):
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


def assert_matches_oracle(model, table, pairs, l_max, words=None):
    report = evaluate(model, table, relations_of(pairs), l_max=l_max)
    expected = [oracle_rank(model, table, p, l_max) for p in pairs]
    assert [(r.cluster, r.rank) for r in report.per_pair] == expected
    n = len(pairs)
    assert report.hits == [sum(1 for _, r in expected if r is not None and r <= i) / n
                           for i in range(1, l_max + 1)]
    for l in (1, l_max):
        assert hit_at(model, table, relations_of(pairs), l) == report.hits[l - 1]
    for word in words if words is not None else table.vocab[:10]:
        got = predict_candidates(model, table, word, l_max)
        want = oracle_predict(model, table, word, l_max)
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
        ranks = [r.rank for r in evaluate(model, table, relations_of(pairs), l_max=8).per_pair]
        # gold w0 beats w3, gold w2 beats w3 but not w0, and w5/w6 tie alone
        assert ranks[:5] == [1, 1, 2, 1, 1]
        for l in (1, 2, 3):  # cut-offs inside a tie class
            for word in table.vocab:
                got = predict_candidates(model, table, word, l)
                want = oracle_predict(model, table, word, l)
                assert [w for w, _ in got] == [w for w, _ in want]
                assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)

    def test_zero_norm_vocabulary_rows(self):
        table, pairs, model = random_fixture(21, n_words=30)
        vectors = table.vectors.copy()
        vectors[[3, 7, 8]] = 0.0
        table = EmbeddingTable(table.vocab, vectors)
        pairs += [hyp("w1", "w7"), hyp("w8", "w2")]  # zero gold, zero hyponym
        assert_matches_oracle(model, table, pairs, l_max=10, words=["w0", "w3", "w9"])
        report = evaluate(model, table, relations_of(pairs), l_max=10)
        assert report.per_pair[-2].rank is None and report.per_pair[-1].rank is None
        assert not {"w3", "w7", "w8"} & {w for w, _ in predict_candidates(model, table, "w0", 30)}

    def test_zero_projection_matrix(self):
        table, pairs, model = random_fixture(31, k=2)
        matrices = model.matrices.copy()
        matrices[1] = 0.0
        model = make_model(matrices, centroids=model.clusters.centroids)
        report = evaluate(model, table, relations_of(pairs), l_max=10)
        assert {r.cluster for r in report.per_pair} == {0, 1}
        assert all(r.rank is None for r in report.per_pair if r.cluster == 1)
        assert_matches_oracle(model, table, pairs, l_max=10)
        everything_zero = make_model(np.zeros((2, 5, 5)), centroids=model.clusters.centroids)
        assert predict_candidates(everything_zero, table, "w0", 5) == []

    def test_self_exclusion(self):
        table, pairs, _ = rotation_fixture(n=10, d=4, seed=41)
        model = make_model(np.eye(4))
        self_pairs = pairs + [hyp("x1", "x1")]  # gold equal to the excluded hyponym
        assert_matches_oracle(model, table, self_pairs, l_max=5)
        assert evaluate(model, table, relations_of(self_pairs), l_max=5).per_pair[-1].rank is None
        # the identity projection scores x0 highest against itself
        assert predict_candidates(model, table, "x0", 1)[0][0] != "x0"

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
            report = evaluate(model, table, relations_of(pairs), l_max=10)
            results.append(([r.rank for r in report.per_pair],
                            [predict_candidates(model, table, w, 10) for w in table.vocab]))
        assert results[0] == results[1]


class TestWriters:
    def test_report_json(self, tmp_path):
        table, pairs = toy_rank_fixture()
        report = evaluate(make_model(np.eye(2)), table, relations_of(pairs), l_max=4)
        path = tmp_path / "report.json"
        write_report_json(report, path, {"note": "toy"})
        payload = json.loads(path.read_text())
        assert payload["hits"] == [0.5, 1.0, 1.0, 1.0]
        assert payload["n_pairs"] == 2
        assert payload["config"] == {"note": "toy"}

    def test_per_pair_tsv(self, tmp_path):
        table, pairs = toy_rank_fixture()
        report = evaluate(make_model(np.zeros((2, 2))), table, relations_of(pairs), l_max=4)
        path = tmp_path / "pairs.tsv"
        write_per_pair_tsv(report, path)
        lines = path.read_text().splitlines()
        assert lines == ["x1\ty1\t0\t-", "x2\ty2\t0\t-"]


# ---------------------------------------------------------------------------
# GEMM ranking with a near-tie recheck against the per-query loop it replaced
# ---------------------------------------------------------------------------


def rank_pairs(model, table, pairs):
    """(clusters, ranks, rechecked) of ``pairs``, bound and ranked by the package."""
    bound = bind_pairs(model.clusters, table, relations_of(pairs))
    return (bound.cluster, *_rank_pairs(model, bound))


def oracle_rechecked(model, table, pairs):
    """How many pairs the scan must rank again: those with another row whose exact
    cosine ties their gold row's. A row within twice the window but not tied could
    go either way, and the fixtures that use this have none."""
    _, ranks = oracle_rank_pairs(model, table, pairs)
    _, queries, sources, gold = pair_queries(model, table, pairs)
    window = embeddings.tie_window(table.dim)
    count = 0
    for row, g, rank in zip(exact_cosines(table, queries, sources), gold, ranks):
        if rank == 0:
            continue
        gaps = np.abs(np.delete(row, g) - row[g])
        assert not ((gaps > 0.0) & (gaps <= 2 * window)).any()
        count += bool((gaps == 0.0).any())
    return count


def assert_ranks_match_oracle(model, table, pairs):
    """``_rank_pairs`` gives the oracle's clusters and ranks; returns its recheck count."""
    clusters, ranks, rechecked = rank_pairs(model, table, pairs)
    want_clusters, want_ranks = oracle_rank_pairs(model, table, pairs)
    assert clusters.tolist() == want_clusters.tolist()
    assert ranks.tolist() == want_ranks.tolist()
    return rechecked


def pair_words(table, pairs):
    return [hyp(table.vocab[a], table.vocab[b]) for a, b in pairs]


class TestGemmRanking:
    def test_random_fixtures(self, tiling):
        for seed in range(4):
            table, pairs, model = random_fixture(seed, n_words=37)
            assert assert_ranks_match_oracle(model, table, pairs) == 0

    def test_exact_ties_from_duplicate_rows(self, tiling):
        # copies of row 10 sit before and after it; the gold row's copies all tie
        # with it, and of a tie the lower vocabulary index ranks first
        table, _, model = random_fixture(81, n_words=37, k=1)
        vectors = table.vectors.copy()
        vectors[[3, 17, 30]] = vectors[10]
        table = EmbeddingTable(table.vocab, vectors)
        pairs = pair_words(table, [(0, 3), (0, 10), (0, 17), (0, 30), (5, 10), (6, 20)])
        assert assert_ranks_match_oracle(model, table, pairs) == 5  # each gold with a copy
        ranks = rank_pairs(model, table, pairs)[1]
        assert np.diff(ranks[:4]).tolist() == [1, 1, 1]

    def test_rows_one_ulp_apart(self, tiling):
        table, _, model = random_fixture(82, n_words=37)
        vectors = table.vectors.copy()
        for j, sign in ((4, np.inf), (12, -np.inf), (25, np.inf)):
            vectors[j] = vectors[9]
            vectors[j, j % 5] = np.nextafter(vectors[9, j % 5], sign)
        table = EmbeddingTable(table.vocab, vectors)
        pairs = pair_words(table, [(0, 9), (1, 4), (2, 12), (3, 25), (5, 9)])
        assert assert_ranks_match_oracle(model, table, pairs) > 0

    def test_zero_gold_row_and_zero_projection_rank_0(self, tiling):
        table, _, model = random_fixture(83, n_words=37, k=2)
        vectors = table.vectors.copy()
        vectors[[7, 21]] = 0.0
        table = EmbeddingTable(table.vocab, vectors)
        matrices = model.matrices.copy()
        matrices[1] = 0.0
        model = make_model(matrices, centroids=model.clusters.centroids)
        pairs = pair_words(table, [(i, (i * 7 + 3) % 37) for i in range(37)] + [(1, 7), (2, 21)])
        assert_ranks_match_oracle(model, table, pairs)
        clusters, ranks, rechecked = rank_pairs(model, table, pairs)
        assert rechecked == 0
        assert ranks[-2] == ranks[-1] == 0
        assert set(clusters) == {0, 1} and not ranks[clusters == 1].any()

    def test_a_window_of_everything_rechecks_every_rankable_pair(self, tiling, monkeypatch):
        table, pairs, model = random_fixture(84, n_words=37)
        vectors = table.vectors.copy()
        vectors[5] = 0.0
        table = EmbeddingTable(table.vocab, vectors)
        pairs += pair_words(table, [(0, 5), (6, 6)])  # a zero gold row, and gold = hyponym
        monkeypatch.setattr(embeddings, "tie_window", lambda dim: 4.0)
        assert assert_ranks_match_oracle(model, table, pairs) == len(pairs) - 2

    def test_a_window_that_splits_the_vocabulary(self, tiling, monkeypatch):
        # with a window of 0.25, every pair is ranked again, and its query has rows
        # above, inside and below the window, in more than one tile of the re-rank;
        # rows 3, 21 and 30 are exact copies, and in the window of each of them lie
        # the zero rows and the excluded hyponym, row 13; both lie above the window
        # of row 33
        window = 0.25
        rng = np.random.default_rng(87)
        planted = {13: 0.2, 3: 0.1, 8: 0.3, 25: -0.1, 33: -0.4}  # cosines with the query (1, 0)
        filler = [0.92, -0.45, 0.75, -0.7, 0.62, -0.93]
        vectors = np.empty((37, 2))
        for j in range(37):
            c = planted.get(j, filler[j % len(filler)])
            vectors[j] = rng.uniform(0.5, 3.0) * np.array([c, (-1) ** j * np.sqrt(1 - c * c)])
        vectors[[0, 20, 36]] = 0.0
        vectors[[21, 30]] = vectors[3]
        t = -np.arctan2(vectors[13, 1], vectors[13, 0])
        model = make_model([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])  # 13 onto (1, 0)
        table = EmbeddingTable([f"w{i}" for i in range(37)], vectors)
        pairs = pair_words(table, [(13, 3), (13, 21), (13, 30), (13, 8), (13, 25), (13, 33)])
        monkeypatch.setattr(embeddings, "tie_window", lambda dim: window)
        _, queries, sources, gold = pair_queries(model, table, pairs)
        full = exact_cosines(table, queries)  # the hyponym not left out
        for i, (row, g) in enumerate(zip(full, gold)):
            gaps = row[row > -np.inf] - row[g]
            assert (gaps > window).any() and (gaps < -window).any()
            assert (np.abs(np.abs(gaps) - window) > 0.01).all()  # clear of the window's ends
            if i < 3:
                assert abs(row[13] - row[g]) < window and abs(0.0 - row[g]) < window
        assert min(full[-1, 13], 0.0) > full[-1, 33] + window
        # the oracle's recheck count: pairs with another usable row within the window
        near = [(np.abs(np.delete(row, g) - row[g]) <= window).any()
                for row, g in zip(exact_cosines(table, queries, sources), gold)]
        assert assert_ranks_match_oracle(model, table, pairs) == sum(near) == len(pairs)
        assert np.diff(rank_pairs(model, table, pairs)[1][:3]).tolist() == [1, 1]

    @pytest.mark.parametrize("norm", [1e-300, 2.0 ** -969, 1e-310, 2.0 ** -1060],
                             ids=["1e-300", "2^-969", "1e-310", "2^-1060"])
    def test_rows_of_tiny_norm_rank_through_the_window(self, norm):
        # a query's norm can be 1/4, so unscaled, a row of norm 2^-969 or less would
        # take their per-row product into the subnormals; at 1e-310 and 2^-1060 the
        # row's entries, and its norm, are subnormal themselves
        table, pairs, model = random_fixture(85, n_words=37)
        vectors = table.vectors.copy()
        vectors[11] *= norm / np.linalg.norm(vectors[11])
        table = EmbeddingTable(table.vocab, vectors)
        assert assert_ranks_match_oracle(model, table, pairs) == oracle_rechecked(model, table,
                                                                                  pairs)
        assert_predict_is_the_brute_force(model, table, table.vocab, 10)

    @staticmethod
    def row_with_cosine(target, b0):
        """Row (1, b) near (1, b0) whose computed cosine with the query (1, 0) is ``target``."""
        b = b0
        for _ in range(10_000):
            cosine = 1.0 / embeddings._row_norms(np.array([[1.0, b]]))[0]
            if cosine == target:
                return [1.0, b]
            b = np.nextafter(b, np.inf if cosine > target else -np.inf)
        raise AssertionError(f"no row has the cosine {target!r}")

    @pytest.mark.parametrize("side, beyond, rank", [
        ("above", False, 2), ("above", True, 2), ("below", False, 1), ("below", True, 1)],
        ids=["at-the-high-end", "past-the-high-end", "at-the-low-end", "past-the-low-end"])
    def test_pair_planted_at_the_window_edge(self, side, beyond, rank):
        # the query (1, 0) and rows (1, b) have exact dot products, so each cosine is
        # 1 / (the row's norm) in every product; a row at the window's end is a near
        # tie that is rechecked, one a float further is ranked from the GEMM
        gold = [1.0, 4.0 / 3.0]  # cosine about 0.6
        c_gold = 1.0 / embeddings._row_norms(np.array([gold]))[0]
        window = embeddings.tie_window(2)
        edge = c_gold + window if side == "above" else c_gold - window
        if beyond:
            edge = np.nextafter(edge, np.inf if side == "above" else -np.inf)
        other = self.row_with_cosine(edge, gold[1])
        table = EmbeddingTable(["x", "g", "j", "z"],
                               np.array([[1.0, 0.0], gold, other, [0.0, -1.0]]))
        pairs = [hyp("x", "g")]
        rechecked = assert_ranks_match_oracle(make_model(np.eye(2)), table, pairs)
        assert rechecked == (0 if beyond else 1)
        assert rank_pairs(make_model(np.eye(2)), table, pairs)[1].tolist() == [rank]

    @pytest.mark.parametrize("seed", range(3))
    def test_larger_table_with_near_ties(self, tiling, seed):
        # at d=48 most GEMM cosines differ from the per-query ones in their last
        # bits; a row a few ulps from each gold row lets those bits decide ranks
        # (with no window, OpenBLAS 0.3 ranks some of these pairs wrongly)
        rng = np.random.default_rng(seed)
        n_words, d = 600, 48
        vectors = rng.normal(size=(n_words, d))
        gold = rng.choice(n_words, size=40, replace=False)
        for j, g in enumerate(gold):
            near = (g + 1 + j) % n_words
            vectors[near] = vectors[g]
            vectors[near, j % d] *= 1 + (j % 7 - 3) * 2.0 ** -48
        table = EmbeddingTable([f"w{i}" for i in range(n_words)], vectors)
        model = make_model(np.eye(d) + 0.1 * rng.normal(size=(d, d)))
        sources = rng.choice(n_words, size=len(gold))
        pairs = pair_words(table, list(zip(sources, gold)))
        assert assert_ranks_match_oracle(model, table, pairs) > 0

    # the first and last column of every tile under each tiling: tiles of 7 over 37
    # rows, and the one tile of the other two
    TILE_ENDS = (0, 6, 7, 13, 14, 20, 21, 27, 28, 34, 35, 36)

    @pytest.mark.parametrize("layout", ["zero-rows-first", "hyponyms-first"])
    def test_excluded_and_zero_rows_at_tile_ends(self, tiling, layout):
        # the scan counts each tile unmasked and then takes the zero rows and each
        # query's excluded hyponym back out; here they sit at every tile's ends, the
        # hyponym scores near 1 against its own query, and half of the gold rows score
        # below 0, so that a zero row's 0.0 lies above their window
        rng = np.random.default_rng(86)
        d = 5
        vectors = rng.normal(size=(37, d))
        ends = self.TILE_ENDS if layout == "zero-rows-first" else self.TILE_ENDS[1:] + (0,)
        zeros, hyponyms = ends[0::2], ends[1::2]
        vectors[list(zeros)] = 0.0
        phi = np.eye(d) + 0.1 * rng.normal(size=(d, d))
        free = iter(sorted(set(range(37)) - set(ends)))
        pairs = []
        for h in hyponyms:
            up, down = next(free), next(free)
            vectors[up] = vectors[h] @ phi + 0.5 * rng.normal(size=d)
            vectors[down] = -(vectors[h] @ phi) + 0.5 * rng.normal(size=d)
            pairs += [(h, up), (h, down)]
        vectors[next(free)] = vectors[pairs[0][1]]  # an exact tie: that pair is ranked again
        table = EmbeddingTable([f"w{i}" for i in range(37)], vectors)
        model = make_model(phi)
        pairs = pair_words(table, pairs)
        rechecked = assert_ranks_match_oracle(model, table, pairs)
        assert rechecked == oracle_rechecked(model, table, pairs) == 1
        ranks = rank_pairs(model, table, pairs)[1]
        assert (ranks > 0).all()
        queries = table.vectors[[table.lookup(p.source) for p in pairs]] @ phi
        golds = table.vectors[[table.lookup(p.target) for p in pairs]]
        negative = np.einsum("ij,ij->i", queries, golds) < 0
        assert negative.tolist() == [False, True] * len(hyponyms)

    def test_the_measured_tiling(self):
        # desk: 9 whole score rows of 7,000 words; mid: 64 queries against tiles of
        # 1,024 of its 70,000 columns
        assert embeddings._rank_tiles(100, 7000) == (9, 7000)
        assert embeddings._rank_tiles(3, 7000) == (3, 7000)
        assert embeddings._rank_tiles(1000, 70_000) == (64, 1024)

    def test_window_is_the_derived_bound(self):
        u = 2.0 ** -53
        for d in (1, 10, 100, 1000):
            gamma = lambda k: k * u / (1 - k * u)  # noqa: E731
            want = 4 * gamma(d + 2) * (1 + gamma(2 * d + 6)) + d * 2.0 ** -102 + 3 * u
            assert embeddings.tie_window(d) == want
        assert embeddings.tie_window(10) < 1e-14  # near ties only: about (4d + 11) u

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_words=st.integers(2, 24), dim=st.integers(1, 4),
           k=st.integers(1, 3), tiling=st.sampled_from(list(TILINGS)),
           row_scale=st.sampled_from([1.0, 1e-150, 1e150, 1e-300]),
           matrix_scale=st.sampled_from([1.0, 1e-100, 1e100]))
    def test_property_ranks_and_clusters_equal_the_oracle(self, data, n_words, dim, k, tiling,
                                                          row_scale, matrix_scale):
        small = st.integers(-3, 3).map(float)
        vectors = np.array(data.draw(st.lists(st.lists(small, min_size=dim, max_size=dim),
                                              min_size=n_words, max_size=n_words)))
        # some rows at an extreme norm, which _row_norms and gold_ranks handle
        extreme = data.draw(st.lists(st.integers(0, n_words - 1), max_size=3))
        vectors[extreme] *= row_scale
        matrices = np.array(data.draw(st.lists(st.lists(small, min_size=dim * dim,
                                                        max_size=dim * dim),
                                               min_size=k, max_size=k))).reshape(k, dim, dim)
        matrices *= matrix_scale
        centroids = np.array(data.draw(st.lists(st.lists(small, min_size=dim, max_size=dim),
                                                min_size=k, max_size=k)))
        index = st.integers(0, n_words - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=12))
        table = EmbeddingTable([f"w{i}" for i in range(n_words)], vectors)
        model = make_model(matrices, centroids=centroids)
        with pytest.MonkeyPatch.context() as mp:
            set_tiling(mp, tiling)
            assert_ranks_match_oracle(model, table, pair_words(table, pairs))


class TestPredictKeepsThePerQueryProduct:
    def test_scores_are_the_best_exact_row(self):
        table, _, model = random_fixture(91, n_words=40, k=3)
        for word in table.vocab[:8]:
            idx = table.lookup(word)
            queries = np.array([table.vectors[idx] @ phi for phi in model.matrices])
            best = np.maximum.reduce(exact_cosines(table, queries, [idx] * model.k))
            got = predict_candidates(model, table, word, 10)
            want = top_indices(best, 10)
            assert [w for w, _ in got] == [table.vocab[i] for i in want]
            assert np.array([s for _, s in got]).tobytes() == best[want].tobytes()


def brute_force_predict(model, table, word, l):
    """(words, score bytes): the best ``exact_cosines`` score of each row over the
    projections of ``word``, the word itself left out, then ``top_indices``."""
    idx = table.lookup(word)
    queries = _project(table.vectors[idx, None], model.matrices)
    best = np.maximum.reduce(exact_cosines(table, queries, [idx] * len(queries)))
    top = top_indices(best, l)
    return [table.vocab[i] for i in top], best[top].tobytes()


def assert_predict_is_the_brute_force(model, table, words, l):
    for word in words:
        got = predict_candidates(model, table, word, l)
        assert ([w for w, _ in got], np.array([s for _, s in got]).tobytes()) == \
            brute_force_predict(model, table, word, l)


class TestPredictShortlist:
    """predict ranks through one matrix product and scores only a shortlist
    exactly; the result is the exact scan's, to the bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_words=st.integers(2, 40),
           dim=st.sampled_from([1, 2, 3, 10, 17]), k=st.integers(1, 3),
           l=st.integers(1, 45), copies=st.integers(0, 8), ulps=st.integers(0, 4),
           zeros=st.integers(0, 3), zero_cluster=st.booleans(), tiny=st.booleans(),
           block=st.sampled_from([1, 7, 64, 1 << 15]),
           power=st.sampled_from([0, 0, -1060, -1000, -300, 300, 1000]))
    def test_property_equals_the_exact_scan(self, seed, n_words, dim, k, l, copies, ulps,
                                            zeros, zero_cluster, tiny, block, power):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n_words, dim))
        # copies of a row, some a few ulps off, tie at the cut or nearly so
        for _ in range(copies):
            src, dst = rng.integers(n_words, size=2)
            vectors[dst] = vectors[src]
            nudge = float(rng.integers(-ulps, ulps + 1)) * 2.0 ** -52
            vectors[dst, rng.integers(dim)] *= 1 + nudge
        vectors[rng.integers(n_words, size=zeros)] = 0.0
        if tiny:  # its products with a query reach the subnormals unless it is scaled too
            vectors[0] = rng.normal(size=dim)
            vectors[0] *= 2.0 ** -969 / np.linalg.norm(vectors[0])
        table = EmbeddingTable([f"w{i}" for i in range(n_words)], vectors)
        matrices = rng.normal(size=(k, dim, dim)) + np.eye(dim)
        if zero_cluster:  # a cluster that projects every word to zero
            matrices[rng.integers(k)] = 0.0
        # queries near the float64 limits, some of them with subnormal entries;
        # with more than one cluster the first keeps its scale, so that they mix
        # with ordinary queries
        matrices[min(1, k - 1):] *= 2.0 ** power
        model = make_model(matrices, centroids=rng.normal(size=(k, dim)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embeddings, "BLOCK_ENTRIES", block)  # more than one score tile
            assert_predict_is_the_brute_force(model, table, table.vocab[:4], l)

    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("beyond", [False, True], ids=["at-the-end", "past-the-end"])
    def test_competitor_planted_at_the_window_edge(self, side, beyond):
        # as in TestGemmRanking: (1, 0) and rows (1, b) have exact dot products, so
        # row j's cosine is exactly its planted distance from row g's in both products
        gold = [1.0, 4.0 / 3.0]
        c_gold = 1.0 / embeddings._row_norms(np.array([gold]))[0]
        edge = c_gold + side * embeddings.tie_window(2)
        if beyond:
            edge = np.nextafter(edge, side * np.inf)
        other = TestGemmRanking.row_with_cosine(edge, gold[1])
        table = EmbeddingTable(["x", "g", "j", "z"],
                               np.array([[1.0, 0.0], gold, other, [0.0, -1.0]]))
        for l in (1, 2, 3):
            assert_predict_is_the_brute_force(make_model(np.eye(2)), table, ["x"], l)

    @pytest.mark.parametrize("seed", range(2))
    def test_near_ties_at_the_cut(self, seed):
        # at d=48 the matrix product and the per-row product round most cosines
        # differently, and rows a few ulps apart sit at every cut-off
        rng = np.random.default_rng(seed)
        n_words, d = 300, 48
        vectors = rng.normal(size=(n_words, d))
        for j in range(0, n_words, 2):
            vectors[j + 1] = vectors[j]
            vectors[j + 1, j % d] *= 1 + (j % 7 - 3) * 2.0 ** -50
        table = EmbeddingTable([f"w{i}" for i in range(n_words)], vectors)
        model = make_model(np.eye(d) + 0.1 * rng.normal(size=(2, d, d)),
                           centroids=rng.normal(size=(2, d)))
        for l in (1, 2, 5, 10, 25):
            assert_predict_is_the_brute_force(model, table, table.vocab[:20], l)


class TestRecheckCount:
    def test_evaluate_reports_the_rechecked_pairs(self):
        table, _, model = random_fixture(92, n_words=20)
        vectors = table.vectors.copy()
        vectors[15] = vectors[4]
        table = EmbeddingTable(table.vocab, vectors)
        pairs = pair_words(table, [(0, 4), (1, 15), (2, 9)])
        assert evaluate(model, table, relations_of(pairs)).rechecked == 2
        assert evaluate(model, table, relations_of(pairs[2:])).rechecked == 0


class TestProjectionThatOverflows:
    @pytest.mark.parametrize("power", [-60, -1000])
    def test_a_model_and_its_copy_times_a_power_of_two_agree(self, power):
        """Some queries of the model M overflow and none of M * 2**power do. Every
        query is scaled by a power of two, so scores agree to the bit."""
        table, pairs, model = random_fixture(93)
        rng = np.random.default_rng(93)
        huge = rng.uniform(-1.0, 1.0, size=model.matrices.shape) * 2.0 ** 1023
        big = make_model(huge, centroids=model.clusters.centroids)
        small = make_model(huge * 2.0 ** power, centroids=model.clusters.centroids)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(table.vectors @ huge).all(axis=-1)
        assert 0 < np.count_nonzero(finite) < finite.size
        relations = relations_of(pairs)
        want, got = evaluate(small, table, relations), evaluate(big, table, relations)
        assert got.per_pair == want.per_pair and got.hits == want.hits
        assert got.rechecked == want.rechecked
        assert want.hits[-1] > 0
        for word in table.vocab:
            candidates = predict_candidates(big, table, word, 10)
            expected = predict_candidates(small, table, word, 10)
            assert [w for w, _ in candidates] == [w for w, _ in expected]
            assert (np.array([s for _, s in candidates]).tobytes()
                    == np.array([s for _, s in expected]).tobytes())
