"""Ranking evaluation: hit@l curves, trapezoid AUC, per-pair diagnostics.

A test pair counts as a hit at level l when the gold hypernym appears
among the l nearest neighbors of the projected hyponym vector. The
hyponym itself is always excluded from the candidate list. The AUC
summarizes the hit curve as the area under its l-1 trapezoids.

Evaluation protocol. eval (and validation during training) routes each
pair to the cluster nearest its gold offset y - x, so the cluster choice
uses the answer. predict has no gold word: it projects through every
cluster and keeps each word's best cosine. Ties go to the lower
vocabulary index. Each holds at most 256 KiB of scores at once.

eval and validation rank through ``_rank_pairs`` and
``embeddings.gold_ranks``: one matrix product per block of queries, and
a gold word's rank counted from the scores, without sorting them. A query
with another word within ``embeddings.tie_window`` of its gold score is
ranked again by ``embeddings.cosine_blocks``, one product per query, so
every rank is the one that product gives. predict prints scores, so it
scores through ``cosine_blocks`` alone, and a word's score does not
depend on the other queries.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .clustering import assign_clusters
from .dataset import RelationPair, pair_rows
from .embeddings import EmbeddingTable, cosine_blocks, gold_ranks, top_indices
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
    per_pair: list[PairResult]
    skips: int
    rechecked: int  # pairs ranked again by the per-query product

    @property
    def l_max(self) -> int:
        return len(self.hits)

    @property
    def n_pairs(self) -> int:
        return len(self.per_pair)


def auc(hits: list[float]) -> float:
    """Area under the l-1 trapezoids of the hit curve."""
    if len(hits) < 2:
        raise InputError(f"AUC needs at least 2 hit levels, got {len(hits)}")
    return 0.5 * sum(hits[i] + hits[i + 1] for i in range(len(hits) - 1))


def _usable_rows(table: EmbeddingTable, pairs: list[RelationPair]) -> tuple[np.ndarray, int]:
    if not pairs:
        raise InputError("pairs must be nonempty")
    rows, found = pair_rows(pairs, table)
    skips = len(pairs) - int(np.count_nonzero(found))
    if skips:
        log.warning("skipped %d pair(s) with words missing from the vocabulary", skips)
    if skips == len(pairs):
        raise InputError("no evaluable pairs: every pair has out-of-vocabulary words")
    return rows[found], skips


def _check_dims(model: ProjectionModel, table: EmbeddingTable) -> None:
    if model.dim != table.dim:
        raise InputError(f"model has dimension {model.dim}, embeddings have {table.dim}")


def _rank_pairs(model: ProjectionModel, table: EmbeddingTable,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """For the (n, 2) hyponym and gold ``rows``: cluster of each pair (from its gold
    offset), 1-based rank of its gold word, and how many pairs ``gold_ranks`` re-ranked.

    A rank of 0 means the gold word cannot be ranked: its score is -inf
    because the projection is zero, the word has a zero vector, or it is
    the excluded hyponym.
    """
    _check_dims(model, table)
    sources, gold = rows[:, 0], rows[:, 1]
    X = table.vectors[sources]
    clusters = assign_clusters(model.clusters, table.vectors[gold] - X)
    queries = np.empty_like(X)
    for c in range(model.k):
        members = clusters == c
        queries[members] = (X[members, None, :] @ model.matrices[c]).reshape(-1, table.dim)
    ranks, rechecked = gold_ranks(table, queries, gold, sources)
    log.debug("ranked %d pair(s), %d re-ranked by the per-query product", len(rows), rechecked)
    return clusters, ranks, rechecked


def hit_at(model: ProjectionModel, table: EmbeddingTable, pairs: list[RelationPair],
           l: int) -> float:
    """Fraction of pairs whose gold hypernym is in the top-l neighbor list."""
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    rows, _ = _usable_rows(table, pairs)
    _, ranks, _ = _rank_pairs(model, table, rows)
    return int(np.count_nonzero((ranks >= 1) & (ranks <= l))) / len(rows)


def evaluate(model: ProjectionModel, table: EmbeddingTable, pairs: list[RelationPair],
             l_max: int = DEFAULT_L_MAX) -> EvalReport:
    """Full hit@1..l_max curve, AUC, and per-pair ranks in one pass."""
    if l_max < 2:
        raise InputError(f"l_max must be >= 2, got {l_max}")
    rows, skips = _usable_rows(table, pairs)
    clusters, ranks, rechecked = _rank_pairs(model, table, rows)
    vocab = table.vocab
    per_pair = [PairResult(vocab[s], vocab[g], int(c), int(r) if 1 <= r <= l_max else None)
                for (s, g), c, r in zip(rows.tolist(), clusters, ranks)]
    n = len(per_pair)
    hits = [int(np.count_nonzero((ranks >= 1) & (ranks <= i))) / n
            for i in range(1, l_max + 1)]
    return EvalReport(hits, auc(hits), per_pair, skips, rechecked)


def predict_candidates(model: ProjectionModel, table: EmbeddingTable, word: str,
                       l: int) -> list[tuple[str, float]]:
    """Ranked hypernym candidates for a word without a gold pair.

    Without a gold offset no single cluster applies, so the word is
    projected through every cluster matrix and each word keeps its best
    score over the clusters. Zero projections and the word itself take no
    part.
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    if word not in table:
        raise InputError(f"word {word!r} is not in the vocabulary")
    _check_dims(model, table)
    idx = table.lookup(word)
    queries = table.vectors[idx] @ model.matrices
    exclude = np.full(model.k, idx)
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
