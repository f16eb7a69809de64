import os

import numpy as np
import pytest
from hypothesis import settings

from hyperproj import embeddings
from hyperproj.clustering import ClusterModel, assign_clusters
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


@pytest.fixture
def tiny_table():
    """Three axis-aligned words: a=(1,0), b=(0,1), c=(-1,0)."""
    return EmbeddingTable(["a", "b", "c"], np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))


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


def oracle_rank_pairs(model, table, pairs):
    """(clusters, ranks) from one ``cosine_blocks`` row per pair, counted in Python.

    Each pair goes to the cluster nearest its gold offset; a rank is 0 where the
    gold row scores -inf. No matrix product of the ranking scan is involved.
    """
    sources = np.array([table.lookup(p.source) for p in pairs])
    gold = np.array([table.lookup(p.target) for p in pairs])
    X = table.vectors[sources]
    clusters = assign_clusters(model.clusters, table.vectors[gold] - X)
    queries = np.empty_like(X)
    for c in range(model.k):
        members = clusters == c
        queries[members] = (X[members, None, :] @ model.matrices[c]).reshape(-1, table.dim)
    ranks = np.zeros(len(pairs), dtype=np.intp)
    for start, S in embeddings.cosine_blocks(table, queries, sources):
        for i, row in enumerate(S, start=start):
            g = gold[i]
            s_gold = row[g]
            if s_gold > -np.inf:
                ranks[i] = (1 + np.count_nonzero(row[:g] >= s_gold)
                            + np.count_nonzero(row[g + 1:] > s_gold))
    return clusters, ranks
