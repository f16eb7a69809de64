import os

import numpy as np
import pytest
from hypothesis import settings

from hyperproj.clustering import ClusterModel
from hyperproj.embeddings import EmbeddingTable
from hyperproj.projection import ProjectionModel, Regularizer, TrainingMeta

# `ci` replays the same examples on every run and tries more of them; tests
# that fix their own max_examples keep it under either profile
settings.register_profile("default")
settings.register_profile("ci", derandomize=True, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
    return ProjectionModel(matrices, clusters, regularizer, lam, d, meta)
