import os

import numpy as np
import pytest
from hypothesis import settings

from hyperproj import embeddings
from hyperproj.clustering import ClusterModel, assign_clusters
from hyperproj.dataset import BUCKETS, RELATIONS, RelationDataset, RelationPair, Relations
from hyperproj.embeddings import EmbeddingTable
from hyperproj.projection import (
    ProjectionModel,
    Regularizer,
    TrainingMeta,
    loss_terms_and_gradient,
)

# `ci` replays the same examples on every run and tries more of them; tests
# that fix their own max_examples keep it under either profile
settings.register_profile("default")
settings.register_profile("ci", derandomize=True, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    """A numpy overflow or invalid value, and a file or other resource left open
    (reported when it is collected, or as an unraisable exception), fail the test
    that meets it.

    Added as the lowest-precedence filters, so a test's own filterwarnings
    mark still wins; the benchmark's tests, which do not load this file,
    keep the default.
    """
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(scope="session", autouse=True)
def embedding_cache(tmp_path_factory):
    """The command-line tool's parsed-table cache, in a directory of this test session."""
    with pytest.MonkeyPatch.context() as mp:
        cache = tmp_path_factory.mktemp("hyperproj-cache")
        mp.setenv("HYPERPROJ_CACHE", str(cache))
        yield cache


# (BLOCK_ENTRIES, GEMM_ROWS, MIN_WHOLE_ROWS): whole score rows at the defaults,
# then 6 queries against tiles of 7 rows, which divide neither fixed vocabulary of
# the ranking tests (37 and 600 rows), then 4 queries against one tile wider than
# the vocabulary
TILINGS = {"whole-rows": (1 << 16, 64, 4), "tiles-of-7": (42, 6, 1 << 30),
           "one-wide-tile": (400, 4, 1 << 30)}


def set_tiling(mp, name):
    for attr, value in zip(("BLOCK_ENTRIES", "GEMM_ROWS", "MIN_WHOLE_ROWS"), TILINGS[name]):
        mp.setattr(embeddings, attr, value)


@pytest.fixture(params=list(TILINGS), ids=list(TILINGS))
def tiling(request, monkeypatch):
    set_tiling(monkeypatch, request.param)
    return request.param


@pytest.fixture
def tiny_table():
    """Three axis-aligned words: a=(1,0), b=(0,1), c=(-1,0)."""
    return EmbeddingTable(["a", "b", "c"], np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))


def relations_of(pairs):
    """Word-level pairs, each (source, target, relation), as Relations over
    their distinct words in first-seen order."""
    index = {}
    ids = [index.setdefault(word, len(index)) for pair in pairs for word in pair[:2]]
    codes = [RELATIONS.index(pair[2]) for pair in pairs]
    return Relations(list(index), np.array(ids, np.intp).reshape(-1, 2), np.array(codes, np.int8))


def pairs_of(relations):
    """The rows of a Relations as a list of RelationPair."""
    word = relations.words.__getitem__
    return [RelationPair(word(s), word(t), RELATIONS[c])
            for (s, t), c in zip(relations.ids.tolist(), relations.codes.tolist())]


def dataset_of(positives, assignment, negatives, dropped_positives=0, dropped_negatives=0):
    """A RelationDataset of word-level positives, each one's bucket name, and
    word-level negatives, over the words of all of them."""
    assert len(positives) == len(assignment)
    every = relations_of([*positives, *negatives])
    buckets = np.array([BUCKETS.index(b) for b in assignment], np.int8)
    n = len(positives)
    return RelationDataset(every.take(slice(n)), buckets, every.take(slice(n, None)),
                           dropped_positives, dropped_negatives)


def assignment_of(data):
    """Each positive's bucket name."""
    return [BUCKETS[b] for b in data.buckets.tolist()]


def vocabulary(data, bucket):
    """The words of a bucket's positives."""
    return {data.words[i] for i in data.relations_in(bucket).ids.ravel().tolist()}


def make_model(matrices, centroids=None, regularizer=Regularizer.NONE, lam=0.0):
    """ProjectionModel from raw matrices, defaulting to a single zero centroid."""
    matrices = np.asarray(matrices, dtype=np.float64)
    if matrices.ndim == 2:
        matrices = matrices[None, :, :]
    k, d, _ = matrices.shape
    if centroids is None:
        centroids = np.zeros((k, d))
    clusters = ClusterModel(np.asarray(centroids, dtype=np.float64), 0.0)
    meta = TrainingMeta(seed=0, epochs=0, batch_size=1)
    return ProjectionModel(matrices, clusters, regularizer, lam, meta)


def reference_terms(phi, X, Y, Z, kind):
    """(fit, regularizer) written straight from the projection module's formulas."""
    D = X @ phi - Y
    fit = (D * D).sum() / len(X)
    if kind is Regularizer.NONE:
        return fit, 0.0
    Q = X @ phi @ phi if kind.reprojects else X @ phi
    s = (Q * (Z if kind.needs_negatives else X)).sum(axis=1)
    return fit, (s * s).sum() / len(X)


def package_loss(phi, X, Y, Z, kind, lam):
    """fit + lam * reg, the objective training minimizes."""
    fit, reg, _ = loss_terms_and_gradient(phi, X, Y, Z, kind, lam)
    return fit + lam * reg


def central_difference(phi, X, Y, Z, kind, lam, h=1e-5):
    """Numerical gradient of package_loss with respect to phi."""
    num = np.zeros_like(phi)
    for ij in np.ndindex(phi.shape):
        e = np.zeros_like(phi)
        e[ij] = h
        num[ij] = (package_loss(phi + e, X, Y, Z, kind, lam)
                   - package_loss(phi - e, X, Y, Z, kind, lam)) / (2 * h)
    return num


def exact_cosines(table, queries, exclude=None):
    """Every query's exact cosine with every row of ``table``, scanned without BLAS.

    Each dot product is numpy's own per-row product of one query and one row,
    the query scaled by ``_scaled_queries`` and the row by the power of two the
    table keeps for it, over the product of their quartered norms: the bits
    the package's exact scorer, ``embeddings._per_row_cosines``, gives for any
    subset of rows. Zero rows, zero queries and, per query, the row
    ``exclude[i]`` when it is >= 0 score -inf.
    """
    queries, qnorms = embeddings._scaled_queries(np.asarray(queries, dtype=np.float64))
    rows = np.ldexp(table.vectors, table._shifts[:, None])
    S = np.empty((len(queries), len(table)))
    for q, out in zip(queries, S):
        np.einsum("ij,j->i", rows, q, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        S /= table._quarter_norms * qnorms[:, None]
    S[:, table._dead] = -np.inf
    S[qnorms == 0.0] = -np.inf
    if exclude is not None:
        exclude = np.asarray(exclude)
        hit = np.flatnonzero(exclude >= 0)
        S[hit, exclude[hit]] = -np.inf
    return S


def top_indices(scores, l):
    """Indices of the ``l`` best finite scores, by descending score then index."""
    finite = np.flatnonzero(scores > -np.inf)
    return finite[np.argsort(-scores[finite], kind="stable")[:l]]


def gold_rank(scores, gold):
    """1-based rank of column ``gold`` among the finite ``scores``, ties to the
    lower index; 0 where it scores -inf."""
    s_gold = scores[gold]
    if s_gold == -np.inf:
        return 0
    return (1 + np.count_nonzero(scores[:gold] >= s_gold)
            + np.count_nonzero(scores[gold + 1:] > s_gold))


def pair_queries(model, table, pairs):
    """(clusters, queries, sources, gold) of ``pairs``: each pair's hyponym row
    projected through the cluster nearest its gold offset."""
    sources = np.array([table.lookup(p.source) for p in pairs])
    gold = np.array([table.lookup(p.target) for p in pairs])
    X = table.vectors[sources]
    clusters = assign_clusters(model.clusters, table.vectors[gold] - X)
    queries = np.empty_like(X)
    for c in range(model.k):
        members = clusters == c
        queries[members] = (X[members, None, :] @ model.matrices[c]).reshape(-1, table.dim)
    return clusters, queries, sources, gold


def oracle_rank_pairs(model, table, pairs):
    """(clusters, ranks) from one ``exact_cosines`` row per pair, counted in Python.

    Each pair goes to the cluster nearest its gold offset; a rank is 0 where the
    gold row scores -inf. No matrix product of the ranking scan is involved.
    """
    clusters, queries, sources, gold = pair_queries(model, table, pairs)
    S = exact_cosines(table, queries, sources)
    return clusters, np.array([gold_rank(row, g) for row, g in zip(S, gold)], dtype=np.intp)
