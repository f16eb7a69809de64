"""Relation ingestion and the lexically disjoint split: split, then bind.

Relations come from a UTF-8 TSV with rows ``source<TAB>target<TAB>relation``
where relation is one of hypernym, synonym, cohyponym. ``split_relations``
splits the hypernym rows (the positives) into buckets and keeps the rest as
negatives; ``bind`` then drops the pairs with a word missing from the
embedding table. ``build_dataset`` and ``read_split_dir`` both end in it.
``pair_rows`` is the one step from a pair's words to table rows: binding,
negative sampling, offsets, training and ranking all call it, each with its
own policy for a pair with a missing word.

``load_relations`` reads, decodes, splits and checks a whole file in one
pass. Only a file that fails is read again line by line, so that its
error names the first failing line, as a row-by-row reader would.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import eq, itemgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from .embeddings import EmbeddingTable
from .errors import InputError, utf8_lines

log = logging.getLogger(__name__)

RELATIONS = ("hypernym", "synonym", "cohyponym")
BUCKETS = ("train", "validation", "test")
DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)  # of the positive pairs, in BUCKETS order


class RelationPair(NamedTuple):
    source: str
    target: str
    relation: str


@dataclass
class RelationDataset:
    """Positives with bucket assignment plus the negative pairs.

    ``assignment`` is parallel to ``positives`` and holds one of the
    BUCKETS labels. ``negative_pairs`` keep their relation labels so
    synonyms and co-hyponyms can be told apart. ``train_negatives`` (built
    on first use) maps each source to its distinct negatives outside the
    validation and test vocabularies, keeping the split during sampling.
    The drop counts are those of ``bind``.
    """

    positives: list[RelationPair]
    assignment: list[str]
    negative_pairs: list[RelationPair]
    dropped_positives: int = 0
    dropped_negatives: int = 0

    def __post_init__(self) -> None:
        if len(self.positives) != len(self.assignment):
            raise InputError("assignment must be parallel to positives")

    @cached_property
    def train_negatives(self) -> dict[str, list[str]]:
        held_out = self.vocabulary("validation") | self.vocabulary("test")
        negatives: dict[str, list[str]] = {}
        for pair in self.negative_pairs:
            cands = negatives.setdefault(pair.source, [])  # keys keep first-seen order
            if pair.target not in held_out and pair.target not in cands:
                cands.append(pair.target)
        return {src: cands for src, cands in negatives.items() if cands}

    def pairs_in(self, bucket: str) -> list[RelationPair]:
        if bucket not in BUCKETS:
            raise InputError(f"unknown bucket {bucket!r}")
        return [p for p, b in zip(self.positives, self.assignment) if b == bucket]

    def vocabulary(self, bucket: str) -> set[str]:
        return {w for pair in self.pairs_in(bucket) for w in (pair.source, pair.target)}


def load_relations(path: str | Path) -> list[RelationPair]:
    """Parse a relations TSV, preserving file order.

    Lines starting with ``#`` are ignored. Exact duplicate rows are
    dropped with a warning reporting the count. The file is decoded,
    split and checked whole, in one pass; a file that fails is then
    scanned line by line, to report its first failing line.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"relations file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError:
        _raise_first_bad_line(path)
    # the line ends of text-mode reading: \r\n and a lone \r end a line too
    rows = [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            if line and line[0] != "#"]
    columns = map(itemgetter(0, 1, 2), (row.split("\t") for row in rows))
    try:
        pairs = list(dict.fromkeys(map(RelationPair._make, columns)))
    except IndexError:  # a row with fewer than three columns
        _raise_first_bad_line(path)
    sources, targets, relations = zip(*pairs) if pairs else ((), (), ())
    if not set(relations) <= set(RELATIONS) or any(map(eq, sources, targets)):
        _raise_first_bad_line(path)
    if len(rows) > len(pairs):
        log.warning("%s: dropped %d duplicate row(s)", path, len(rows) - len(pairs))
    return pairs


def _raise_first_bad_line(path: Path) -> NoReturn:
    """Raise the error of the first line of ``path`` that fails a check of load_relations."""
    for lineno, line in utf8_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 3:
            raise InputError(f"{path}:{lineno}: expected 3 tab-separated columns")
        source, target, relation = cols[:3]
        if relation not in RELATIONS:
            raise InputError(
                f"{path}:{lineno}: unknown relation {relation!r} "
                f"(expected one of {', '.join(RELATIONS)})"
            )
        if source == target:
            raise InputError(f"{path}:{lineno}: source equals target ({source!r})")
    raise AssertionError(f"{path}: the whole-file check failed, yet no line does")


def write_relations(pairs: Iterable[RelationPair], path: str | Path) -> None:
    """Write pairs as a relations TSV, the format ``load_relations`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{p.source}\t{p.target}\t{p.relation}\n" for p in pairs)


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
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
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


def split_relations(pairs: list[RelationPair], fractions: tuple[float, float, float],
                    seed: int) -> RelationDataset:
    """Split the hypernym rows lexically; the other rows are the negative pairs."""
    positives = [p for p in pairs if p.relation == "hypernym"]
    negative_pairs = [p for p in pairs if p.relation != "hypernym"]
    return RelationDataset(positives, lexical_split(positives, fractions, seed), negative_pairs)


def pair_rows(pairs: Sequence, table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, found)``: the (n, 2) table rows of each pair's source and target, -1 for
    a missing word (it would read the last row), and which pairs have both words."""
    get = table._index.get  # one dict lookup per word, without a method call
    rows = np.array([np.fromiter(map(get, map(itemgetter(col), pairs), repeat(-1)),
                                 np.intp, len(pairs)) for col in (0, 1)])
    return rows.T, (rows >= 0).all(axis=0)  # (n, 2), each column contiguous


def bind(dataset: RelationDataset, table: EmbeddingTable) -> RelationDataset:
    """Drop, count and log the pairs with a word missing from ``table``."""
    kept = pair_rows(dataset.positives, table)[1].tolist()
    kept_neg = pair_rows(dataset.negative_pairs, table)[1].tolist()
    dropped_pos, dropped_neg = kept.count(False), kept_neg.count(False)
    if dropped_pos or dropped_neg:
        log.info("dropped %d positive and %d negative pair(s) not in the vocabulary",
                 dropped_pos, dropped_neg)
    return RelationDataset(list(compress(dataset.positives, kept)),
                           list(compress(dataset.assignment, kept)),
                           list(compress(dataset.negative_pairs, kept_neg)),
                           dropped_positives=dataset.dropped_positives + dropped_pos,
                           dropped_negatives=dataset.dropped_negatives + dropped_neg)


def build_dataset(pairs: list[RelationPair], table: EmbeddingTable,
                  fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
                  seed: int = 0) -> RelationDataset:
    """Split, then bind: the dataset that ``write_split`` then ``read_split_dir`` give."""
    return bind(split_relations(pairs, fractions, seed), table)


def sample_negative(dataset: RelationDataset, source: str,
                    rng: np.random.Generator) -> str:
    """Draw a uniform negative for ``source``; falls back to ``source``.

    The one-word reference form of ``_negative_sampler``: for the same
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
    pairs = [(source, w) for source, cands in dataset.train_negatives.items() for w in cands]
    rows, found = pair_rows(pairs, table)
    trained = rows[:, 0] >= 0  # a source missing from the table trains nothing
    if not found[trained].all():
        source, word = pairs[np.flatnonzero(trained & ~found)[0]]
        raise InputError(f"negative {word!r} of {source!r} is not in the embedding table")
    sources, cands = rows[trained].T
    indptr = np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=len(table)))))
    return indptr, cands[np.argsort(sources, kind="stable")]


def _negative_sampler(indptr: np.ndarray, indices: np.ndarray,
                      sources: np.ndarray) -> Callable[[np.random.Generator], np.ndarray]:
    """A function of the generator that draws one uniform negative per source row.

    ``sources`` (int64) and each draw are vocabulary row indices;
    ``(indptr, indices)`` comes from ``negative_index``. A source without
    candidates returns itself and draws nothing. The others draw in source
    order, one ``rng.integers(count)`` each, so the stream is the one a
    loop of ``sample_negative`` over the same words consumes. The CSR
    lookups (each source's first candidate, its candidate count, and which
    sources draw) are taken once, here; each call only draws.
    """
    starts = indptr.take(sources)
    counts = indptr.take(sources + 1) - starts
    drawn = np.flatnonzero(counts)
    starts, counts = starts.take(drawn), counts.take(drawn)

    def draw(rng: np.random.Generator) -> np.ndarray:
        out = sources.copy()
        out[drawn] = indices.take(starts + rng.integers(counts))
        return out

    return draw


def write_split(dataset: RelationDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write the bucket and negatives relations TSVs.

    Returns a name -> path map of everything written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.tsv" for name in (*BUCKETS, "negatives")}
    for bucket in BUCKETS:
        write_relations(dataset.pairs_in(bucket), paths[bucket])
    write_relations(dataset.negative_pairs, paths["negatives"])
    return paths


def read_split_dir(split_dir: str | Path, table: EmbeddingTable) -> RelationDataset:
    """Bind the split in a directory written by write_split to ``table``.

    Every row of a bucket file must be a hypernym and no row of
    ``negatives.tsv`` may be one; otherwise the first row that breaks this
    is an ``InputError``.
    """
    split_dir = Path(split_dir)
    positives: list[RelationPair] = []
    assignment: list[str] = []
    for bucket in BUCKETS:
        path = split_dir / f"{bucket}.tsv"
        if not path.is_file():
            raise InputError(f"split directory is missing {path.name}")
        pairs = _check_positive(path, load_relations(path), True)
        positives += pairs
        assignment += [bucket] * len(pairs)
    neg_path = split_dir / "negatives.tsv"
    negative_pairs = (_check_positive(neg_path, load_relations(neg_path), False)
                      if neg_path.is_file() else [])
    return bind(RelationDataset(positives, assignment, negative_pairs), table)


def _check_positive(path: Path, pairs: list[RelationPair],
                    positive: bool) -> list[RelationPair]:
    """``pairs``, if all are hypernyms (``positive``) or none are; else an error on the first."""
    for pair in pairs:
        if (pair.relation == "hypernym") is not positive:
            holds = "only hypernym rows" if positive else "no hypernym rows"
            raise InputError(f"{path}: row {tuple(pair)} is a {pair.relation} pair, "
                             f"but {path.name} holds {holds}")
    return pairs
