"""Synthetic desk-scale fixtures: planted linear maps plus distractors.

Hyponym vectors are random unit vectors. Each planted cluster owns a
mixing matrix A = s (cos(a) I + sin(a) Q) with Q a random rotation,
a = ``hyper_angle_deg``, and s = ``MIXER_SCALE``, so hypernyms
y = x A + noise sit roughly at angle a from their hyponyms while remaining
an exactly linear image of them when the noise is zero. The default angle
of 90 degrees makes A a scaled pure rotation; smaller angles leave
hypernyms deliberately close to their hyponyms so that planted distractors
compete with them in ranking. The scale keeps the planted entries inside
the region the default optimizer budget (700 single-batch Adam steps at
learning rate 1e-3) can actually reach; cosine ranking is unaffected by
it. Synonym distractors are planted inside a cone of
``distractor_angle_deg`` around each hyponym; they populate the negatives
map used by the neighbor regularizer.

The random stream is part of the fixture contract: the same config gives
the same bytes. The distractors are drawn last, hyponym-major, each as one
angle ``rng.uniform(0, theta)`` followed by ``rng.normal(size=d)`` for its
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import HYPERNYM, RELATIONS, Relations, write_relations
from .embeddings import EmbeddingTable, save_embeddings_text
from .errors import InputError

MIXER_SCALE = 0.35  # s, the scale of every mixing matrix


@dataclass
class SynthConfig:
    dim: int = 10
    n_pairs: int = 1000
    noise: float = 0.0
    distractors: int = 0
    seed: int = 0
    planted_clusters: int = 1
    hyper_angle_deg: float = 90.0
    distractor_angle_deg: float = 15.0

    def validate(self) -> None:
        for name in ("noise", "hyper_angle_deg", "distractor_angle_deg"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dim < 2:
            raise InputError(f"dim must be >= 2, got {self.dim}")
        if self.n_pairs < 1:
            raise InputError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.noise < 0:
            raise InputError(f"noise must be non-negative, got {self.noise}")
        if self.distractors < 0:
            raise InputError(f"distractors must be non-negative, got {self.distractors}")
        if self.planted_clusters < 1:
            raise InputError(f"planted_clusters must be >= 1, got {self.planted_clusters}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        # the largest array: the table's rows or the d x d rotation
        values = max(self.n_pairs * (2 + self.distractors), self.dim) * self.dim
        if values > np.iinfo(np.intp).max // 8:
            raise InputError(f"a fixture of {values} float64 values cannot be addressed")


def _random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))  # canonical sign, uniform over rotations


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _distractor_rows(X: np.ndarray, k: int, theta: float,
                     rng: np.random.Generator) -> np.ndarray:
    """``k`` unit rows per row of ``X``, each at a uniform angle in [0, theta) from it.

    Row ``i * k + j`` is distractor ``j`` of hyponym ``i``. Each distractor
    draws its angle, ``rng.uniform(0, theta)``, and then ``rng.normal(size=d)``
    for its direction, hyponym-major. The draws come first, one distractor at
    a time; the geometry is then done for all rows at once, with the bits of
    doing it row by row.
    """
    n, d = X.shape
    m = n * k
    # allocated before the draw loop, so a size that cannot be held fails at once
    angles = np.empty(m)
    rows = np.empty((m, d))
    random, standard_normal = rng.random, rng.standard_normal
    for r in range(m):
        angles[r] = random()
        standard_normal(out=rows[r])
    angles *= theta
    # X[i] broadcast over its k distractors; a (1, d) @ (d, 1) product is the
    # vector dot of `rnd @ X[i]` and of `np.linalg.norm(perp)`, bit for bit
    per = rows.reshape(n, k, d)
    x = X[:, None, :]
    per -= (per[..., None, :] @ x[..., None])[..., 0] * x  # perp = rnd - (rnd @ x) x
    per /= np.sqrt(per[..., None, :] @ per[..., None])[..., 0]
    per *= np.sin(angles).reshape(n, k, 1)
    per += np.cos(angles).reshape(n, k, 1) * x
    return rows


def make_fixture(cfg: SynthConfig) -> tuple[EmbeddingTable, Relations]:
    """Generate the embedding table and relations for one fixture.

    The relations are columns over ``table.vocab``, so their ids are table
    rows: hyponym i (row i) has hypernym row n + i, then each distractor row
    2n + r is a synonym of hyponym r // k.

    With more than one planted cluster, each cluster's hyponyms are drawn
    from a cone around a cluster-specific direction, so the offset vectors
    are actually separable by k-means; a single isotropic hyponym cloud
    would make the planted groups unrecoverable from offsets alone.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    d, n = cfg.dim, cfg.n_pairs
    raw = rng.normal(size=(n, d))
    a = np.deg2rad(cfg.hyper_angle_deg)
    mixers = [MIXER_SCALE * (np.cos(a) * np.eye(d) + np.sin(a) * _random_rotation(d, rng))
              for _ in range(cfg.planted_clusters)]
    groups = rng.integers(cfg.planted_clusters, size=n)
    if cfg.planted_clusters == 1:
        X = _unit_rows(raw)
    else:
        centers = _unit_rows(rng.normal(size=(cfg.planted_clusters, d)))
        X = _unit_rows(centers[groups] + 0.8 * _unit_rows(raw))
    Y = np.empty_like(X)
    for g, A in enumerate(mixers):
        members = groups == g
        Y[members] = X[members] @ A
    if cfg.noise > 0:
        Y = Y + cfg.noise * rng.normal(size=(n, d))

    k = cfg.distractors
    syn_rows = _distractor_rows(X, k, np.deg2rad(cfg.distractor_angle_deg), rng)

    width = len(str(n - 1))
    hypo_words = [f"hypo{i:0{width}d}" for i in range(n)]
    hyper_words = [f"hyper{i:0{width}d}" for i in range(n)]
    syn_words = [f"syn{i:0{width}d}_{j}" for i in range(n) for j in range(k)]
    table = EmbeddingTable(hypo_words + hyper_words + syn_words, np.vstack([X, Y, syn_rows]))
    hypo = np.arange(n)
    ids = np.concatenate([np.stack([hypo, n + hypo], axis=1),
                          np.stack([np.repeat(hypo, k), np.arange(2 * n, (2 + k) * n)], axis=1)])
    codes = np.repeat(np.array([HYPERNYM, RELATIONS.index("synonym")], np.int8), [n, n * k])
    return table, Relations(table.vocab, ids, codes)


def write_fixture(table: EmbeddingTable, relations: Relations,
                  out_dir: str | Path) -> dict[str, Path]:
    """Write embeddings.txt and relations.tsv; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"embeddings": out_dir / "embeddings.txt", "relations": out_dir / "relations.tsv"}
    save_embeddings_text(table, paths["embeddings"])
    write_relations(relations, paths["relations"])
    return paths
