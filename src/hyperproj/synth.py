"""Synthetic desk-scale fixtures: planted linear maps plus distractors.

Hyponym vectors are random unit vectors. Each planted cluster owns a
mixing matrix A = s (cos(a) I + sin(a) Q) with Q a random rotation,
a = ``hyper_angle_deg``, and s = ``mixer_scale``, so hypernyms
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RelationPair, write_relations
from .embeddings import EmbeddingTable, save_embeddings_text
from .errors import InputError


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
    mixer_scale: float = 0.35

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
        if self.mixer_scale <= 0:
            raise InputError(f"mixer_scale must be positive, got {self.mixer_scale}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


def _random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))  # canonical sign, uniform over rotations


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def make_fixture(cfg: SynthConfig) -> tuple[EmbeddingTable, list[RelationPair]]:
    """Generate the embedding table and relations for one fixture.

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
    mixers = [cfg.mixer_scale * (np.cos(a) * np.eye(d) + np.sin(a) * _random_rotation(d, rng))
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

    width = len(str(n - 1))
    hypo_words = [f"hypo{i:0{width}d}" for i in range(n)]
    hyper_words = [f"hyper{i:0{width}d}" for i in range(n)]
    vocab = hypo_words + hyper_words
    vectors = [X, Y]
    relations = [RelationPair(hypo_words[i], hyper_words[i], "hypernym") for i in range(n)]

    if cfg.distractors > 0:
        theta = np.deg2rad(cfg.distractor_angle_deg)
        syn_rows = np.empty((n * cfg.distractors, d))
        for i in range(n):
            for j in range(cfg.distractors):
                ang = rng.uniform(0.0, theta)
                rnd = rng.normal(size=d)
                perp = rnd - (rnd @ X[i]) * X[i]
                perp /= np.linalg.norm(perp)
                syn_rows[i * cfg.distractors + j] = np.cos(ang) * X[i] + np.sin(ang) * perp
                word = f"syn{i:0{width}d}_{j}"
                vocab.append(word)
                relations.append(RelationPair(hypo_words[i], word, "synonym"))
        vectors.append(syn_rows)

    table = EmbeddingTable(vocab, np.vstack(vectors))
    return table, relations


def write_fixture(table: EmbeddingTable, relations: list[RelationPair],
                  out_dir: str | Path) -> dict[str, Path]:
    """Write embeddings.txt and relations.tsv; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"embeddings": out_dir / "embeddings.txt", "relations": out_dir / "relations.tsv"}
    save_embeddings_text(table, paths["embeddings"])
    write_relations(relations, paths["relations"])
    return paths
