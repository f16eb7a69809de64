import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj.clustering import (
    ClusterModel,
    assign_cluster,
    assign_clusters,
    fit_kmeans,
    offsets,
)
from hyperproj.dataset import RelationPair, Relations
from hyperproj.embeddings import EmbeddingTable
from hyperproj.errors import InputError

from conftest import relations_of


def hyp(a, b):
    return RelationPair(a, b, "hypernym")


class TestOffsets:
    def test_subtraction(self):
        table = EmbeddingTable(["x", "y"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = offsets(relations_of([hyp("x", "y")]), table)
        assert np.array_equal(out, [[-1.0, 1.0]])

    def test_equal_vectors_give_zero_offset(self):
        table = EmbeddingTable(["x", "y"], np.array([[2.0, 3.0], [2.0, 3.0]]))
        assert np.array_equal(offsets(relations_of([hyp("x", "y")]), table), [[0.0, 0.0]])

    def test_batch_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(6)]
        table = EmbeddingTable(words, rng.normal(size=(6, 3)))
        pairs = [hyp("w0", "w3"), hyp("w1", "w4"), hyp("w2", "w5")]
        got = offsets(relations_of(pairs), table)
        for i, pair in enumerate(pairs):
            expected = table.vector(pair.target) - table.vector(pair.source)
            assert np.array_equal(got[i], expected)

    def test_unresolvable_pair_rejected(self):
        table = EmbeddingTable(["x"], np.array([[1.0]]))
        with pytest.raises(InputError, match="unresolvable"):
            offsets(relations_of([hyp("x", "nope")]), table)

    def test_unresolvable_pair_names_the_first_by_its_words(self):
        # ids over a word list of their own: the message names words, not ids or rows
        table = EmbeddingTable(["a", "x", "y"], np.eye(3))
        relations = Relations(["y", "b", "x", "a"], np.array([[2, 0], [3, 1], [0, 1]]),
                              np.zeros(3, np.int8))
        with pytest.raises(InputError, match=re.escape("unresolvable pair ('a', 'b')")):
            offsets(relations, table)


class TestFitKmeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(200, 4))
        model = fit_kmeans(points, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], points.mean(axis=0), rtol=1e-10)

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(2)
        left = np.array([-10.0, 0.0]) + 0.1 * rng.normal(size=(50, 2))
        right = np.array([10.0, 0.0]) + 0.1 * rng.normal(size=(50, 2))
        model = fit_kmeans(np.vstack([left, right]), 2, seed=3)
        cents = model.centroids[np.argsort(model.centroids[:, 0])]
        assert np.linalg.norm(cents[0] - [-10.0, 0.0]) < 0.2
        assert np.linalg.norm(cents[1] - [10.0, 0.0]) < 0.2

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(8, 3))
        model = fit_kmeans(points, 8, seed=0)
        assert model.inertia == 0.0
        assert {tuple(c) for c in model.centroids} == {tuple(p) for p in points}

    def test_inertia_trace_non_increasing(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(300, 6))
        model = fit_kmeans(points, 5, seed=11)
        trace = model.inertia_trace
        assert len(trace) >= 2
        for a, b in zip(trace, trace[1:]):
            assert b <= a * (1 + 1e-12)

    def test_same_seed_same_centroids(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(120, 3))
        a = fit_kmeans(points, 4, seed=9)
        b = fit_kmeans(points, 4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InputError, match="exceeds"):
            fit_kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_nonfinite_rejected(self):
        points = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InputError, match="non-finite"):
            fit_kmeans(points, 1, seed=0)

    def test_duplicate_points_fill_remaining_clusters(self):
        points = np.tile([[1.0, 2.0]], (5, 1))
        model = fit_kmeans(points, 3, seed=0)
        assert model.inertia == 0.0

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_k1_mean_property(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(rng.integers(2, 50), rng.integers(1, 6)))
        model = fit_kmeans(points, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], points.mean(axis=0), rtol=1e-10,
                                   atol=1e-12)


class TestAssign:
    def test_two_distance_oracle(self):
        # |(1,1)-(0,0)|^2 = 2 beats |(1,1)-(10,10)|^2 = 162
        model = ClusterModel(np.array([[0.0, 0.0], [10.0, 10.0]]), 0.0)
        assert assign_cluster(model, np.array([1.0, 1.0])) == 0

    def test_exact_centroid(self):
        model = ClusterModel(np.array([[0.0, 0.0], [10.0, 10.0]]), 0.0)
        assert assign_cluster(model, np.array([10.0, 10.0])) == 1

    def test_equidistant_goes_to_lowest_index(self):
        model = ClusterModel(np.array([[-1.0, 0.0], [1.0, 0.0]]), 0.0)
        assert assign_cluster(model, np.array([0.0, 0.0])) == 0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        model = ClusterModel(rng.normal(size=(4, 3)), 0.0)
        points = rng.normal(size=(50, 3))
        bulk = assign_clusters(model, points)
        for i in range(50):
            assert bulk[i] == assign_cluster(model, points[i])

    def test_dimension_mismatch(self):
        model = ClusterModel(np.zeros((2, 3)), 0.0)
        with pytest.raises(InputError, match="dimension"):
            assign_cluster(model, np.zeros(2))
