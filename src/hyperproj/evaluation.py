"""Ranking evaluation: hit@l curves, trapezoid AUC, per-pair diagnostics.

A test pair counts as a hit at level l when the gold hypernym appears
among the l nearest neighbors of the projected hyponym vector. The
hyponym itself is always excluded from the candidate list. The AUC
summarizes the hit curve as the area under its l-1 trapezoids.

Evaluation protocol. eval (and validation during training) routes each
pair to the cluster nearest its gold offset y - x, so the cluster choice
uses the answer. predict has no gold word: it projects through every
cluster and keeps each word's best cosine. Ties go to the lower
vocabulary index. Each holds at most 256 KiB of float32 scores at once.

``bind_pairs`` looks the pairs' words up, routes each pair and divides its
gold row by its norm once: ``hit_at`` and ``evaluate`` take the
``BoundPairs`` in place of a list, and training binds its validation pairs
once per run, so that a check only projects and ranks.

Both rank through one float32 matrix product of unit queries against the
table's kept float32 unit columns, then make it exact in float64. eval and
validation rank through ``_rank_pairs`` and ``embeddings.gold_ranks``: a
gold word's rank is counted from the product's scores, without sorting
them, and for a query with other words within ``embeddings.tie_window`` of
its gold score, the gold word and those words, read off the same product,
are scored exactly by the float64 per-row product
``embeddings._per_row_cosines``. predict ranks through
``embeddings.top_cosines``: only the words within the same window of the
l-th best score are scored again, by the same per-row product, so every
rank and printed score is that of an exact float64 scan of the whole
vocabulary, whatever the BLAS library or its threads. Both project through
``_project``, which computes a projection that overflows again from factors
scaled by powers of two, and both score every query scaled by a power of two
(``embeddings._scaled_queries``), so no score depends on a query's scale.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel, assign_clusters
from .dataset import Relations, pair_rows
from .embeddings import (EmbeddingTable, GoldTargets, _below_one, gold_ranks, gold_targets,
                         top_cosines)
from .embeddings import nearest_neighbors  # noqa: F401  (perfbench's tracer test patches it here)
from .errors import InputError, atomic_open
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
    rechecked: int  # pairs whose rank needed words near the gold one scored exactly

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


def _usable_rows(table: EmbeddingTable, pairs: Relations) -> tuple[np.ndarray, int]:
    if not pairs:
        raise InputError("pairs must be nonempty")
    rows, found = pair_rows(pairs, table)
    skips = len(pairs) - int(np.count_nonzero(found))
    if skips:
        log.warning("skipped %d pair(s) with words missing from the vocabulary", skips)
    if skips == len(pairs):
        raise InputError("no evaluable pairs: every pair has out-of-vocabulary words")
    return rows[found], skips


def _check_dims(dim: int, table: EmbeddingTable) -> None:
    if dim != table.dim:
        raise InputError(f"model has dimension {dim}, embeddings have {table.dim}")


def _project(X: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Rows ``X @ matrices``, broadcast as ``X[:, None, :] @ matrices``: an (n, d) array.

    A row that overflows is computed again from its row of ``X`` and its
    matrix, each scaled by ``embeddings._below_one`` so that its largest entry
    is below 1: exact, and no cosine depends on the scale. Every finite row
    keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = X[:, None, :] @ matrices
    if not np.isfinite(P).all():  # one test of the whole projection, then the rows
        bad = np.flatnonzero(~np.isfinite(P).all(axis=(1, 2)))
        X1, M1 = (np.broadcast_to(a, (len(P), *a.shape[-2:]))[bad]
                  for a in (X[:, None, :], matrices))
        P[bad] = _below_one(X1, axis=(1, 2))[0] @ _below_one(M1, axis=(1, 2))[0]
    return P[:, 0]


@dataclass(eq=False)
class BoundPairs:
    """Pairs bound to one table and one cluster model (``bind_pairs``): all that
    ranking them needs that no projection matrix changes."""

    table: EmbeddingTable
    clusters: ClusterModel
    rows: np.ndarray  # (n, 2) table rows of each pair's hyponym and gold hypernym
    skips: int  # pairs left out for a word missing from the table
    cluster: np.ndarray  # each pair's cluster, nearest its gold offset
    members: list[tuple[int, np.ndarray]]  # each nonempty cluster and its pairs
    hyponyms: np.ndarray  # (n, d) hyponym vectors
    targets: GoldTargets


def bind_pairs(clusters: ClusterModel, table: EmbeddingTable, pairs: Relations) -> BoundPairs:
    """Bind ``pairs`` to ``table`` and route each by its gold offset ``y - x``.

    A pair with a word missing from the table is skipped with a warning; a
    set with no pair left is an error.
    """
    rows, skips = _usable_rows(table, pairs)
    _check_dims(clusters.dim, table)
    sources, gold = rows[:, 0], rows[:, 1]
    X = table.vectors[sources]
    cluster = assign_clusters(clusters, table.vectors[gold] - X)
    members = [(c, np.flatnonzero(cluster == c)) for c in range(clusters.k)]
    members = [(c, idx) for c, idx in members if idx.size]
    return BoundPairs(table, clusters, rows, skips, cluster, members, X,
                      gold_targets(table, gold, sources))


def _bound(model: ProjectionModel, table: EmbeddingTable,
           pairs: Relations | BoundPairs) -> BoundPairs:
    """``pairs`` bound for ``model`` and ``table``: as given if already bound to them."""
    if not isinstance(pairs, BoundPairs):
        return bind_pairs(model.clusters, table, pairs)
    if pairs.table is not table or pairs.clusters is not model.clusters:
        raise InputError("pairs are bound to another table or cluster model")
    return pairs


def _rank_pairs(model: ProjectionModel, bound: BoundPairs) -> tuple[np.ndarray, int]:
    """1-based rank of each bound pair's gold word, and for how many pairs
    ``gold_ranks`` scored words near the gold one exactly.

    A rank of 0 means the gold word cannot be ranked: its score is -inf
    because the projection is zero, the word has a zero vector, or it is
    the excluded hyponym.
    """
    X = bound.hyponyms
    queries = np.empty_like(X)
    for c, idx in bound.members:
        queries[idx] = _project(X[idx], model.matrices[c])
    ranks, rechecked = gold_ranks(bound.table, queries, bound.targets)
    log.debug("ranked %d pair(s), %d with near ties scored exactly", len(X), rechecked)
    return ranks, rechecked


def hit_at(model: ProjectionModel, table: EmbeddingTable,
           pairs: Relations | BoundPairs, l: int) -> float:
    """Fraction of pairs whose gold hypernym is in the top-l neighbor list."""
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    bound = _bound(model, table, pairs)
    ranks, _ = _rank_pairs(model, bound)
    return int(np.count_nonzero((ranks >= 1) & (ranks <= l))) / len(ranks)


def evaluate(model: ProjectionModel, table: EmbeddingTable,
             pairs: Relations | BoundPairs,
             l_max: int = DEFAULT_L_MAX) -> EvalReport:
    """Full hit@1..l_max curve, AUC, and per-pair ranks in one pass."""
    if l_max < 2:
        raise InputError(f"l_max must be >= 2, got {l_max}")
    bound = _bound(model, table, pairs)
    ranks, rechecked = _rank_pairs(model, bound)
    vocab = table.vocab
    per_pair = [PairResult(vocab[s], vocab[g], int(c), int(r) if 1 <= r <= l_max else None)
                for (s, g), c, r in zip(bound.rows.tolist(), bound.cluster, ranks)]
    n = len(per_pair)
    hits = [int(np.count_nonzero((ranks >= 1) & (ranks <= i))) / n
            for i in range(1, l_max + 1)]
    return EvalReport(hits, auc(hits), per_pair, bound.skips, rechecked)


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
    _check_dims(model.dim, table)
    idx = table.lookup(word)
    rows, scores = top_cosines(table, _project(table.vectors[idx, None], model.matrices), l, idx)
    return [(table.vocab[i], s) for i, s in zip(rows.tolist(), scores.tolist())]


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
    with atomic_open(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_per_pair_tsv(report: EvalReport, path) -> None:
    """Rows ``hyponym<TAB>gold<TAB>cluster<TAB>rank`` with ``-`` for misses."""
    with atomic_open(path) as fh:
        for row in report.per_pair:
            rank = row.rank if row.rank is not None else "-"
            fh.write(f"{row.hyponym}\t{row.gold}\t{row.cluster}\t{rank}\n")
