"""K-means over hyponym-to-hypernym offset vectors.

Lloyd iterations with seeded k-means++ initialization. Each training pair
is represented by the offset target - source; one projection matrix is
later trained per cluster of offsets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dataset import RelationPair, Relations, pair_rows
from .embeddings import EmbeddingTable
from .errors import InputError

log = logging.getLogger(__name__)

# Lloyd's stopping rule, shared by `cluster` and by train's own k-means
MAX_ITER = 100
TOL = 1e-6  # largest centroid movement that still counts as moving


@dataclass(eq=False)
class ClusterModel:
    """Fitted centroids over offset space.

    ``inertia_trace`` records the sum of squared distances once per Lloyd
    iteration (plus the final value) and is non-increasing.
    """

    centroids: np.ndarray
    inertia: float
    inertia_trace: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.centroids = np.ascontiguousarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2:
            raise InputError("centroids must be a k x d matrix")
        if not np.isfinite(self.centroids).all():
            raise InputError("centroids contain non-finite values")

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])


def _pair_vectors(pairs: list[RelationPair] | Relations,
                  table: EmbeddingTable) -> tuple[np.ndarray, ...]:
    """The rows of ``pairs`` and their source and target vectors; a missing word is an error."""
    rows, found = pair_rows(pairs, table)
    if not found.all():  # the first such pair, as ('source', 'target')
        raise InputError(f"unresolvable pair {pairs[int(np.argmin(found))][:2]!r}")
    return rows, *table.vectors[rows.T]


def offsets(pairs: list[RelationPair] | Relations, table: EmbeddingTable) -> np.ndarray:
    """Offset matrix with row i = vector(target_i) - vector(source_i)."""
    _, X, Y = _pair_vectors(pairs, table)
    return Y - X


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) matrix; clip tiny negatives from the expansion identity
    sq = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:  # all remaining points coincide with a centroid
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def fit_kmeans(points: np.ndarray, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm from k-means++ initialization.

    Stops when the largest centroid movement falls below ``TOL`` or after
    ``MAX_ITER`` iterations. An empty cluster is repaired by reseeding its
    centroid to the point farthest from its assigned centroid.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InputError("points must be an n x d matrix")
    n = points.shape[0]
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > n:
        raise InputError(f"k={k} exceeds the number of points ({n})")
    if not np.isfinite(points).all():
        raise InputError("points contain non-finite values")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp(points, k, rng)
    trace: list[float] = []

    def exact_inertia(assign: np.ndarray) -> float:
        # direct form; the expanded identity used for argmin can leave
        # ~1e-15 residue on points that sit exactly on their centroid
        diffs = points - centroids[assign]
        return float((diffs * diffs).sum())

    for _ in range(MAX_ITER):
        sq = _squared_distances(points, centroids)
        assign = sq.argmin(axis=1)  # argmin takes the lowest index on ties
        trace.append(exact_inertia(assign))
        new_centroids = centroids.copy()
        for c in range(k):  # fixed cluster order keeps reductions deterministic
            members = assign == c
            if members.any():
                new_centroids[c] = points[members].mean(axis=0)
        empty = [c for c in range(k) if not (assign == c).any()]
        if empty:
            dist_own = sq[np.arange(n), assign].copy()
            for c in empty:
                far = int(dist_own.argmax())
                new_centroids[c] = points[far]
                dist_own[far] = -1.0  # two empty clusters must not grab the same point
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < TOL:
            break
    assign = _squared_distances(points, centroids).argmin(axis=1)
    inertia = exact_inertia(assign)
    trace.append(inertia)
    return ClusterModel(centroids, inertia, trace)


def assign_cluster(model: ClusterModel, offset: np.ndarray) -> int:
    """Index of the nearest centroid (squared Euclidean, ties -> lowest)."""
    offset = np.asarray(offset, dtype=np.float64).reshape(-1)
    if offset.shape[0] != model.dim:
        raise InputError(f"offset has dimension {offset.shape[0]}, model has {model.dim}")
    return int(assign_clusters(model, offset[None, :])[0])


def assign_clusters(model: ClusterModel, points: np.ndarray) -> np.ndarray:
    """Vectorized assign_cluster over the rows of ``points``."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.shape[1] != model.dim:
        raise InputError(f"points have dimension {points.shape[1]}, model has {model.dim}")
    return _squared_distances(points, model.centroids).argmin(axis=1)
