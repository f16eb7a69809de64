"""Relation ingestion, negative maps, and the lexically disjoint split.

Relations come from a UTF-8 TSV with rows ``source<TAB>target<TAB>relation``
where relation is one of hypernym, synonym, cohyponym. Hypernym rows form
the positive set; synonym and cohyponym rows populate the negatives map
used for sampling during training.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable
from .errors import InputError, utf8_lines

log = logging.getLogger(__name__)

RELATIONS = ("hypernym", "synonym", "cohyponym")
NEGATIVE_RELATIONS = ("synonym", "cohyponym")
BUCKETS = ("train", "validation", "test")


@dataclass(frozen=True)
class RelationPair:
    source: str
    target: str
    relation: str


@dataclass
class RelationDataset:
    """Bound positives with bucket assignment plus the negative pairs.

    ``assignment`` is parallel to ``positives`` and holds one of the
    BUCKETS labels. ``negative_pairs`` keep their relation labels so
    synonyms and co-hyponyms can be told apart; ``negatives`` is the
    derived source -> candidate words map, and ``train_negatives`` the
    same map restricted to words outside the validation and test
    vocabularies, preserving the lexical split during sampling.
    """

    positives: list[RelationPair]
    assignment: list[str]
    negative_pairs: list[RelationPair]
    dropped_positives: int = 0
    dropped_negatives: int = 0
    negatives: dict[str, list[str]] = field(init=False, repr=False)
    train_negatives: dict[str, list[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.positives) != len(self.assignment):
            raise InputError("assignment must be parallel to positives")
        self.negatives = {}
        for pair in self.negative_pairs:
            cands = self.negatives.setdefault(pair.source, [])
            if pair.target not in cands:
                cands.append(pair.target)
        held_out = self.vocabulary("validation") | self.vocabulary("test")
        self.train_negatives = {
            src: kept
            for src, cands in self.negatives.items()
            if (kept := [w for w in cands if w not in held_out])
        }

    def pairs_in(self, bucket: str) -> list[RelationPair]:
        if bucket not in BUCKETS:
            raise InputError(f"unknown bucket {bucket!r}")
        return [p for p, b in zip(self.positives, self.assignment) if b == bucket]

    def vocabulary(self, bucket: str) -> set[str]:
        words: set[str] = set()
        for pair in self.pairs_in(bucket):
            words.add(pair.source)
            words.add(pair.target)
        return words


def load_relations(path: str | Path) -> list[RelationPair]:
    """Parse a relations TSV, preserving file order.

    Lines starting with ``#`` are ignored. Exact duplicate rows are
    dropped with a warning reporting the count.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"relations file not found: {path}")
    pairs: list[RelationPair] = []
    seen: set[tuple[str, str, str]] = set()
    dupes = 0
    for lineno, line in utf8_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 3:
            raise InputError(f"{path}:{lineno}: expected 3 tab-separated columns")
        source, target, relation = cols[0], cols[1], cols[2]
        if relation not in RELATIONS:
            raise InputError(
                f"{path}:{lineno}: unknown relation {relation!r} "
                f"(expected one of {', '.join(RELATIONS)})"
            )
        if source == target:
            raise InputError(f"{path}:{lineno}: source equals target ({source!r})")
        key = (source, target, relation)
        if key in seen:
            dupes += 1
            continue
        seen.add(key)
        pairs.append(RelationPair(source, target, relation))
    if dupes:
        log.warning("%s: dropped %d duplicate row(s)", path, dupes)
    return pairs


def validate_fractions(fractions: tuple[float, float, float]) -> None:
    if len(fractions) != 3:
        raise InputError("fractions must be (train, validation, test)")
    if not all(math.isfinite(f) and f > 0 for f in fractions):
        raise InputError(f"fractions must be positive and finite, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InputError(f"fractions must sum to 1, got {sum(fractions)}")


def lexical_split(pairs: list[RelationPair], fractions: tuple[float, float, float],
                  seed: int) -> list[str]:
    """Assign whole word-graph components to buckets.

    Words are nodes, pairs are edges; connected components are shuffled by
    ``seed`` and greedily placed into the currently most-underfilled
    bucket relative to ``fractions`` times the pair count. Disjoint
    vocabularies across buckets hold by construction; achieved fractions
    are approximate when components are large.
    """
    validate_fractions(fractions)
    if not pairs:
        return []
    parent: dict[str, str] = {}

    def find(w: str) -> str:
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    for pair in pairs:
        for w in (pair.source, pair.target):
            parent.setdefault(w, w)
        ra, rb = find(pair.source), find(pair.target)
        if ra != rb:
            parent[rb] = ra

    by_root: dict[str, list[int]] = {}
    for i, pair in enumerate(pairs):
        by_root.setdefault(find(pair.source), []).append(i)
    # canonical order (by first pair index) before the seeded shuffle
    components = sorted(by_root.values(), key=lambda idxs: idxs[0])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(components))

    targets = np.array(fractions, dtype=np.float64) * len(pairs)
    counts = np.zeros(3, dtype=np.float64)
    assignment = [""] * len(pairs)
    for ci in order:
        comp = components[ci]
        if len(comp) > targets.max():
            log.warning(
                "component with %d pairs exceeds the largest bucket target (%.1f); "
                "assigning anyway, fractions will be approximate", len(comp), targets.max(),
            )
        bucket = int(np.argmax(targets - counts))  # ties: train, then validation, then test
        counts[bucket] += len(comp)
        for i in comp:
            assignment[i] = BUCKETS[bucket]
    return assignment


def build_dataset(pairs: list[RelationPair], table: EmbeddingTable,
                  fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
                  seed: int = 0) -> RelationDataset:
    """Bind relations to an embedding table and split the positives.

    Pairs with a word missing from the table are dropped; the counts are
    logged and recorded on the returned dataset.
    """
    positives: list[RelationPair] = []
    negative_pairs: list[RelationPair] = []
    dropped_pos = 0
    dropped_neg = 0
    for pair in pairs:
        resolvable = pair.source in table and pair.target in table
        if pair.relation == "hypernym":
            if resolvable:
                positives.append(pair)
            else:
                dropped_pos += 1
        elif resolvable:
            negative_pairs.append(pair)
        else:
            dropped_neg += 1
    if dropped_pos or dropped_neg:
        log.info("dropped %d positive and %d negative pair(s) not in the vocabulary",
                 dropped_pos, dropped_neg)
    assignment = lexical_split(positives, fractions, seed)
    return RelationDataset(positives, assignment, negative_pairs,
                           dropped_positives=dropped_pos, dropped_negatives=dropped_neg)


def sample_negative(dataset: RelationDataset, source: str,
                    rng: np.random.Generator) -> str:
    """Draw a uniform negative for ``source``; falls back to ``source``.

    The one-word reference form of ``sample_negatives``: for the same
    sources it returns the same words and consumes the same random
    stream. Candidates are the bound negatives restricted to words
    outside the validation and test vocabularies. An empty or missing
    candidate list returns ``source`` itself without a draw, which reduces
    the neighbor regularizer to the asymmetric one for that example.
    """
    cands = dataset.train_negatives.get(source)
    if not cands:
        return source
    return cands[int(rng.integers(len(cands)))]


def negative_index(dataset: RelationDataset,
                   table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    """``dataset.train_negatives`` as a CSR table over the table's rows.

    Returns ``(indptr, indices)``: the candidates of vocabulary row ``s``
    are ``indices[indptr[s]:indptr[s + 1]]``, in the order of its
    candidate list. Rows without candidates are empty.
    """
    cand_rows: dict[int, list[int]] = {}
    for source, cands in dataset.train_negatives.items():
        s = table.lookup(source)
        if s is None:
            continue  # never a training source: training needs its vector
        rows = [table.lookup(w) for w in cands]
        if None in rows:
            missing = cands[rows.index(None)]
            raise InputError(f"negative {missing!r} of {source!r} is not in the embedding table")
        cand_rows[s] = rows
    indptr = np.zeros(len(table) + 1, dtype=np.int64)
    for s, rows in cand_rows.items():
        indptr[s + 1] = len(rows)
    np.cumsum(indptr, out=indptr)
    indices = np.array([r for s in sorted(cand_rows) for r in cand_rows[s]], dtype=np.int64)
    return indptr, indices


def sample_negatives(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw one uniform negative per source row, all in one call.

    ``sources`` and the result are vocabulary row indices; ``(indptr,
    indices)`` comes from ``negative_index``. A source without candidates
    returns itself and draws nothing. The others draw in source order, one
    ``rng.integers(count)`` each, so the stream is the one a loop of
    ``sample_negative`` over the same words consumes.
    """
    sources = np.asarray(sources, dtype=np.int64)
    starts = indptr[sources]
    counts = indptr[sources + 1] - starts
    drawn = counts > 0
    out = sources.copy()
    out[drawn] = indices[starts[drawn] + rng.integers(counts[drawn])]
    return out


def write_split(dataset: RelationDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write bucket TSVs, the negatives file, and the split manifest.

    Returns a name -> path map of everything written. Bucket files reuse
    the relations TSV format so they can be reloaded with load_relations.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for bucket in BUCKETS:
        path = out_dir / f"{bucket}.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for pair in dataset.pairs_in(bucket):
                fh.write(f"{pair.source}\t{pair.target}\t{pair.relation}\n")
        paths[bucket] = path
    neg_path = out_dir / "negatives.tsv"
    with open(neg_path, "w", encoding="utf-8") as fh:
        for pair in dataset.negative_pairs:
            fh.write(f"{pair.source}\t{pair.target}\t{pair.relation}\n")
    paths["negatives"] = neg_path
    manifest = out_dir / "split_manifest.tsv"
    with open(manifest, "w", encoding="utf-8") as fh:
        for pair, bucket in zip(dataset.positives, dataset.assignment):
            fh.write(f"{pair.source}\t{pair.target}\t{bucket}\n")
    paths["manifest"] = manifest
    return paths


def read_split_dir(split_dir: str | Path, table: EmbeddingTable) -> RelationDataset:
    """Rebuild a RelationDataset from a directory written by write_split."""
    split_dir = Path(split_dir)
    positives: list[RelationPair] = []
    assignment: list[str] = []
    dropped_pos = 0
    for bucket in BUCKETS:
        path = split_dir / f"{bucket}.tsv"
        if not path.is_file():
            raise InputError(f"split directory is missing {path.name}")
        for pair in load_relations(path):
            if pair.source in table and pair.target in table:
                positives.append(pair)
                assignment.append(bucket)
            else:
                dropped_pos += 1
    negative_pairs: list[RelationPair] = []
    dropped_neg = 0
    neg_path = split_dir / "negatives.tsv"
    if neg_path.is_file():
        for pair in load_relations(neg_path):
            if pair.source in table and pair.target in table:
                negative_pairs.append(pair)
            else:
                dropped_neg += 1
    return RelationDataset(positives, assignment, negative_pairs,
                           dropped_positives=dropped_pos, dropped_negatives=dropped_neg)
