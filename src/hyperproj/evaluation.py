"""Ranking evaluation: hit@l curves, trapezoid AUC, per-pair diagnostics.

A test pair counts as a hit at level l when the gold hypernym appears
among the l nearest neighbors of the projected hyponym vector. The
hyponym itself is excluded from the candidate list by default. The AUC
summarizes the hit curve as the area under its l-1 trapezoids.

Evaluation protocol. eval (and validation during training) routes each
pair to the cluster nearest its gold offset y - x, so the cluster choice
uses the answer. predict has no gold word: it projects through every
cluster and keeps each word's best cosine. Ties go to the lower
vocabulary index. All three rank with one scorer,
``embeddings.cosine_blocks``, which holds at most 256 KiB of scores at
once (one query's row if the vocabulary has more than 2^15 words). A
gold word's rank is counted from the scores, without sorting them.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .clustering import assign_clusters
from .dataset import RelationPair
from .embeddings import EmbeddingTable, cosine_blocks, top_indices
from .embeddings import nearest_neighbors  # noqa: F401  (the one-query form, re-exported)
from .errors import InputError
from .projection import ProjectionModel

log = logging.getLogger(__name__)

DEFAULT_L_MAX = 10


@dataclass
class PairResult:
    hyponym: str
    gold: str
    cluster: int
    rank: int | None  # 1-based rank in the candidate list, None if absent


@dataclass
class EvalReport:
    hits: list[float]  # hit@1 .. hit@l_max
    auc: float
    l_max: int
    per_pair: list[PairResult]
    n_pairs: int
    skips: int


def auc(hits: list[float]) -> float:
    """Area under the l-1 trapezoids of the hit curve."""
    if len(hits) < 2:
        raise InputError(f"AUC needs at least 2 hit levels, got {len(hits)}")
    return 0.5 * sum(hits[i] + hits[i + 1] for i in range(len(hits) - 1))


def _usable_pairs(table: EmbeddingTable,
                  pairs: list[RelationPair]) -> tuple[list[RelationPair], int]:
    usable = [p for p in pairs if p.source in table and p.target in table]
    skips = len(pairs) - len(usable)
    if skips:
        log.warning("skipped %d pair(s) with words missing from the vocabulary", skips)
    if not usable:
        raise InputError("no evaluable pairs: every pair has out-of-vocabulary words")
    return usable, skips


def _rank_pairs(model: ProjectionModel, table: EmbeddingTable, pairs: list[RelationPair],
                exclude_self: bool) -> tuple[np.ndarray, np.ndarray]:
    """Cluster of each pair (from its gold offset) and 1-based rank of its gold word.

    A rank of 0 means the gold word cannot be ranked: its score is -inf
    because the projection is zero, the word has a zero vector, or it is
    the excluded hyponym.
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
    for start, S in cosine_blocks(table, queries, sources if exclude_self else None):
        for i, row in enumerate(S, start=start):
            g = gold[i]
            s_gold = row[g]
            if s_gold > -np.inf:  # ties rank the lower vocabulary index first
                ranks[i] = (1 + np.count_nonzero(row[:g] >= s_gold)
                            + np.count_nonzero(row[g + 1:] > s_gold))
    return clusters, ranks


def hit_at(model: ProjectionModel, table: EmbeddingTable, pairs: list[RelationPair],
           l: int, exclude_self: bool = True) -> float:
    """Fraction of pairs whose gold hypernym is in the top-l neighbor list."""
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    if not pairs:
        raise InputError("pairs must be nonempty")
    usable, _ = _usable_pairs(table, pairs)
    _, ranks = _rank_pairs(model, table, usable, exclude_self)
    return int(np.count_nonzero((ranks >= 1) & (ranks <= l))) / len(usable)


def evaluate(model: ProjectionModel, table: EmbeddingTable, pairs: list[RelationPair],
             l_max: int = DEFAULT_L_MAX, exclude_self: bool = True) -> EvalReport:
    """Full hit@1..l_max curve, AUC, and per-pair ranks in one pass."""
    if l_max < 2:
        raise InputError(f"l_max must be >= 2, got {l_max}")
    if not pairs:
        raise InputError("pairs must be nonempty")
    usable, skips = _usable_pairs(table, pairs)
    clusters, ranks = _rank_pairs(model, table, usable, exclude_self)
    per_pair = [PairResult(p.source, p.target, int(c), int(r) if 1 <= r <= l_max else None)
                for p, c, r in zip(usable, clusters, ranks)]
    n = len(per_pair)
    hits = [int(np.count_nonzero((ranks >= 1) & (ranks <= i))) / n
            for i in range(1, l_max + 1)]
    return EvalReport(hits, auc(hits), l_max, per_pair, n, skips)


def predict_candidates(model: ProjectionModel, table: EmbeddingTable, word: str,
                       l: int, exclude_self: bool = True) -> list[tuple[str, float]]:
    """Ranked hypernym candidates for a word without a gold pair.

    Without a gold offset no single cluster applies, so the word is
    projected through every cluster matrix and each word keeps its best
    score over the clusters. Zero projections take no part.
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    if word not in table:
        raise InputError(f"word {word!r} is not in the vocabulary")
    idx = table.lookup(word)
    queries = table.vectors[idx] @ model.matrices
    exclude = np.full(model.k, idx if exclude_self else -1)
    best = np.full(len(table), -np.inf)
    for _, S in cosine_blocks(table, queries, exclude):
        np.maximum(best, S.max(axis=0), out=best)
    return [(table.vocab[i], float(best[i])) for i in top_indices(best, l)]


def write_report_json(report: EvalReport, path, config: dict | None = None) -> None:
    """Machine-readable report: hit curve, AUC, counts, config echo."""
    payload = {
        "hits": report.hits,
        "auc": report.auc,
        "l_max": report.l_max,
        "n_pairs": report.n_pairs,
        "skips": report.skips,
        "config": config or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_per_pair_tsv(report: EvalReport, path) -> None:
    """Rows ``hyponym<TAB>gold<TAB>cluster<TAB>rank`` with ``-`` for misses."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in report.per_pair:
            rank = row.rank if row.rank is not None else "-"
            fh.write(f"{row.hyponym}\t{row.gold}\t{row.cluster}\t{rank}\n")
