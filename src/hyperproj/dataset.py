"""Relation ingestion and the lexically disjoint split: split, then bind.

Relations come from a UTF-8 TSV with rows ``source<TAB>target<TAB>relation``
where relation is one of hypernym, synonym, cohyponym. ``read_relations``
reads a whole file into a ``Relations``: one word list plus int arrays of
word ids and relation codes, with no Python object per row. Only a file
that fails is read again, line by line, by ``_raise_first_bad_line``, so
that its error names the first failing line, as a row-by-row reader would.

``split_relations`` splits the hypernym rows (the positives) into buckets
and keeps the rest as negatives; ``bind`` then drops the pairs with a word
missing from the embedding table. ``build_dataset`` and ``read_split_dir``
both end in it. A bound dataset's word list is the table's vocabulary, so
its word ids are table rows: training, clustering, validation and
``negative_index`` take them as they are.

``read_split_dir`` can keep bound splits in the cache directory of parsed
tables (see ``embeddings``), as ``.hpsplit`` entries keyed by the digests
of the bytes it reads and the table's ``vocab_hash``. A hit builds the
bound dataset from the stored table rows, relation codes and buckets,
skipping the parse and ``bind``, and logs the duplicate-row warnings and
the drop message of the parse again, with its own paths. A miss parses
the bytes already read; only a split that loads gets an entry.

Every function that takes relations takes a ``Relations``. ``pair_rows``
resolves them to table rows for evaluation, clustering and training;
each keeps its own policy for a pair with a missing word. Two word-level
forms remain, because the benchmark's tracer hooks them by name:
``load_relations``, a list of ``RelationPair`` built from
``read_relations``' columns, and ``sample_negative``, the one-word
reference form of ``_negative_sampler``, over ``train_negatives``.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, repeat
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from .embeddings import EmbeddingTable, _entry_path, _store, _touch, vocab_hash
from .errors import InputError, atomic_open, read_container, read_hashed, utf8_lines

log = logging.getLogger(__name__)

RELATIONS = ("hypernym", "synonym", "cohyponym")
BUCKETS = ("train", "validation", "test")
SPLIT_FILES = (*BUCKETS, "negatives")  # a split directory's files, stem only, in read order
DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)  # of the positive pairs, in BUCKETS order
HYPERNYM = RELATIONS.index("hypernym")  # the relation code of a positive

_RELATION_CODES = {name: code for code, name in enumerate(RELATIONS)}
_BUCKET_CODES = {name: code for code, name in enumerate(BUCKETS)}
_ROW_ENDS = tuple(f"\t{name}\n" for name in RELATIONS)  # a written row's last column
SPLIT_MAGIC = b"HPSPL1"
SPLIT_CACHE_VERSION = 1  # in each bound split entry's name and header, see read_split_dir


class RelationPair(NamedTuple):
    source: str
    target: str
    relation: str


class _Words:
    """Word ids for the words met so far, one dict operation a word.

    A word's id is the place of its first occurrence in ``words``, every
    word met so far, repeats included; ``dense`` renumbers the ids 0, 1,
    ... in first-seen order.
    """

    def __init__(self) -> None:
        self.words: list[str] = []
        self.first: dict[str, int] = {}  # each distinct word -> its id

    def __len__(self) -> int:  # above every id so far
        return len(self.words)

    def ids(self, words: list[str]) -> np.ndarray:
        """The (n, 2) ids of ``words``, sources and targets interleaved."""
        ids = np.fromiter(map(self.first.setdefault, words, count(len(self))), np.intp,
                          len(words))
        self.words += words
        return ids.reshape(-1, 2)

    def dense(self, *ids: np.ndarray) -> tuple:
        """The distinct words in first-seen order, then each ids array over them."""
        renumber = np.empty(len(self), np.intp)
        renumber[np.fromiter(self.first.values(), np.intp, len(self.first))] = np.arange(
            len(self.first))
        return list(self.first), *(renumber[i] for i in ids)


def _table_rows(words: list[str], table: EmbeddingTable) -> np.ndarray:
    """The table row of each word, -1 for a word missing from ``table``: one lookup a word."""
    return np.fromiter(map(table._index.get, words, repeat(-1)), np.intp, len(words))


@dataclass(frozen=True, eq=False)
class Relations:
    """Relation rows as columns.

    ``ids[i]`` holds the indexes into ``words`` of row i's source and
    target, and ``codes[i]`` its relation's index in RELATIONS. When
    ``words`` is an embedding table's vocabulary, the ids are its rows.
    ``source_sha256`` names the bytes ``read_relations`` parsed.
    """

    words: list[str]
    ids: np.ndarray  # (n, 2) intp
    codes: np.ndarray  # (n,) int8
    source_sha256: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        # read-only views: rows() hands ``ids`` out without a copy
        for name in ("ids", "codes"):
            column = getattr(self, name).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.codes)

    def take(self, which: np.ndarray) -> Relations:
        """The rows ``which`` (a mask or indexes) picks, over the same words."""
        return Relations(self.words, self.ids[which], self.codes[which])

    def rows(self, table: EmbeddingTable) -> np.ndarray:
        """(n, 2) table rows of each row's source and target, -1 for a missing word."""
        if self.words is table.vocab:  # bound: the ids are the rows
            return self.ids
        return _table_rows(self.words, table)[self.ids]


class RelationDataset:
    """Positives with their buckets, plus the negative pairs, as columns.

    ``hypernyms`` holds the positive rows and ``buckets`` (int8, parallel)
    each one's index in BUCKETS; ``negatives`` holds the other rows, whose
    relation codes tell synonyms and co-hyponyms apart. Both share one word
    list, the table's vocabulary once ``bind`` has run. The drop counts are
    those of ``bind``; ``source_sha256`` maps each file ``read_split_dir``
    read to the SHA-256 of its bytes.

    ``train_negatives`` (built on first use) maps each source word to its
    distinct negatives outside the validation and test vocabularies,
    keeping the split during sampling.
    """

    def __init__(self, hypernyms: Relations, buckets: np.ndarray, negatives: Relations,
                 dropped_positives: int = 0, dropped_negatives: int = 0,
                 source_sha256: dict[Path, str] | None = None):
        if hypernyms.words is not negatives.words or len(hypernyms) != len(buckets):
            raise InputError("columns must share one word list, and buckets the positives' rows")
        self.hypernyms = hypernyms
        self.buckets = buckets
        self.negatives = negatives
        self.dropped_positives = dropped_positives
        self.dropped_negatives = dropped_negatives
        self.source_sha256 = source_sha256 or {}
        self.cache_status: str | None = None  # "hit" or "miss" once read_split_dir looked it up

    @property
    def words(self) -> list[str]:
        return self.hypernyms.words

    def relations_in(self, bucket: str) -> Relations:
        """The bucket's positive rows, in order, as columns."""
        if bucket not in BUCKETS:
            raise InputError(f"unknown bucket {bucket!r}")
        return self.hypernyms.take(self.buckets == _BUCKET_CODES[bucket])

    def _held_out(self) -> np.ndarray:
        """Which words, by id, a validation or test positive holds."""
        held_out = np.zeros(len(self.words), dtype=bool)  # np.unique would import numpy.ma
        held_out[self.hypernyms.ids[self.buckets != _BUCKET_CODES["train"]]] = True
        return held_out

    @cached_property
    def train_negatives(self) -> dict[str, list[str]]:
        sources, targets = self.negatives.ids.T.tolist()
        held_out = self._held_out()[targets].tolist()
        negatives: dict[int, list[int]] = {}
        for source, target, held in zip(sources, targets, held_out):
            cands = negatives.setdefault(source, [])  # keys keep first-seen order
            if not held and target not in cands:
                cands.append(target)
        word = self.words.__getitem__
        return {word(src): list(map(word, cands)) for src, cands in negatives.items() if cands}


def _read_file(path: Path) -> tuple[bytes, str]:
    """A relations file's bytes and their SHA-256."""
    if not path.is_file():
        raise InputError(f"relations file not found: {path}")
    return read_hashed(path)


def _warn_duplicates(path: Path, duplicates: int) -> None:
    if duplicates:
        log.warning("%s: dropped %d duplicate row(s)", path, duplicates)


def _parse(path: Path, data: bytes, words: _Words) -> tuple[np.ndarray, np.ndarray, int]:
    """The word ids and relation codes of the distinct rows of the relations file
    ``path``, whose bytes are ``data``, in file order, and how many duplicate rows
    were dropped, with a warning.

    The file is decoded, split and checked whole. Rows of exactly three
    columns, the usual case, are cut into columns by one join and one split
    of the whole text; only a file with a row of more columns cuts each row
    to three first. A file that fails a check is scanned line by line by
    ``_raise_first_bad_line``.
    """
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError:
        _raise_first_bad_line(path)
    # the line ends of text-mode reading: \r\n and a lone \r end a line too
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows = [line for line in text.split("\n") if line and line[0] != "#"]
    tabs = set(map(str.count, rows, repeat("\t")))
    if min(tabs, default=2) < 2:  # a row with fewer than three columns
        _raise_first_bad_line(path)
    if tabs - {2}:  # the columns after the third are ignored
        rows = ["\t".join(row.split("\t", 3)[:3]) for row in rows]
    fields = "\t".join(rows).split("\t") if rows else []
    relations = fields[2::3]
    del fields[2::3]  # sources and targets, interleaved
    if not _RELATION_CODES.keys() >= set(relations):
        _raise_first_bad_line(path)
    ids = words.ids(fields)
    if (ids[:, 0] == ids[:, 1]).any():
        _raise_first_bad_line(path)
    codes = np.fromiter(map(_RELATION_CODES.__getitem__, relations), np.int8, len(relations))
    # one key per distinct row; it fits an int64 below 1.7e9 words met
    key = (ids[:, 0].astype(np.int64) * len(words) + ids[:, 1]) * len(RELATIONS) + codes
    first = np.unique(key, return_index=True)[1]
    duplicates = len(key) - len(first)
    _warn_duplicates(path, duplicates)
    if duplicates:
        first.sort()  # the first of each, in file order
        ids, codes = ids[first], codes[first]
    return ids, codes, duplicates


def read_relations(path: str | Path) -> Relations:
    """Parse a relations TSV into columns, preserving file order.

    Lines starting with ``#`` are ignored. Exact duplicate rows are
    dropped with a warning reporting the count. The file is decoded,
    split and checked whole, in one pass, with no Python object per row; a
    file that fails is then scanned line by line, to report its first
    failing line.
    """
    path, words = Path(path), _Words()
    data, digest = _read_file(path)
    ids, codes, _ = _parse(path, data, words)
    return Relations(*words.dense(ids), codes, digest)


def load_relations(path: str | Path) -> list[RelationPair]:
    """The rows ``read_relations`` reads, as a list of RelationPair."""
    relations = read_relations(path)
    sources, targets = relations.ids.T.tolist()
    word = relations.words.__getitem__
    return list(map(RelationPair._make, zip(map(word, sources), map(word, targets),
                                            map(RELATIONS.__getitem__, relations.codes.tolist()))))


def _raise_first_bad_line(path: Path) -> NoReturn:
    """Raise the error of the first line of ``path`` that fails a check of read_relations."""
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


def write_relations(relations: Relations, path: str | Path) -> None:
    """Write relations as a TSV, the format ``read_relations`` reads: one join of
    the columns, source, tab, target, tab-relation-newline."""
    sources, targets = relations.ids.T.tolist()
    parts = [""] * (4 * len(relations))
    parts[0::4] = map(relations.words.__getitem__, sources)
    parts[1::4] = repeat("\t", len(relations))
    parts[2::4] = map(relations.words.__getitem__, targets)
    parts[3::4] = map(_ROW_ENDS.__getitem__, relations.codes.tolist())
    with atomic_open(path) as fh:
        fh.write("".join(parts))


def validate_fractions(fractions: tuple[float, float, float]) -> None:
    if len(fractions) != 3:
        raise InputError("fractions must be (train, validation, test)")
    if not all(math.isfinite(f) and f > 0 for f in fractions):
        raise InputError(f"fractions must be positive and finite, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InputError(f"fractions must sum to 1, got {sum(fractions)}")


def lexical_split(relations: Relations, fractions: tuple[float, float, float],
                  seed: int) -> np.ndarray:
    """Assign whole word-graph components to buckets: each row's int8 index in BUCKETS.

    Words are nodes, pairs are edges; connected components are shuffled by
    ``seed`` and greedily placed into the currently most-underfilled
    bucket relative to ``fractions`` times the pair count. Disjoint
    vocabularies across buckets hold by construction; achieved fractions
    are approximate when components are large. The components come from a
    union-find over word ids, and the placement sums Python floats.
    """
    validate_fractions(fractions)
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if not len(relations):
        return np.empty(0, np.int8)
    parent = list(range(int(relations.ids.max()) + 1))

    def find(w: int) -> int:
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    sources, targets = relations.ids.T.tolist()
    for source, target in zip(sources, targets):
        ra, rb = find(source), find(target)
        if ra != rb:
            parent[rb] = ra
    roots = list(map(find, sources))
    # components numbered in the canonical order (by first pair) before the seeded shuffle
    number = dict(zip(dict.fromkeys(roots), count()))
    component = np.fromiter(map(number.__getitem__, roots), np.intp, len(roots))
    sizes = np.bincount(component).tolist()
    order = np.random.default_rng(seed).permutation(len(sizes)).tolist()

    quota = [f * len(relations) for f in fractions]
    largest = max(quota)
    counts = [0.0, 0.0, 0.0]
    placed = [0] * len(sizes)
    for ci in order:
        size = sizes[ci]
        if size > largest:
            log.warning(
                "component with %d pairs exceeds the largest bucket target (%.1f); "
                "assigning anyway, fractions will be approximate", size, largest,
            )
        gaps = [q - c for q, c in zip(quota, counts)]
        bucket = gaps.index(max(gaps))  # ties: train, then validation, then test
        counts[bucket] += size
        placed[ci] = bucket
    return np.array(placed, np.int8)[component]


def split_relations(relations: Relations, fractions: tuple[float, float, float],
                    seed: int) -> RelationDataset:
    """Split the hypernym rows lexically; the other rows are the negative pairs."""
    positive = relations.codes == HYPERNYM
    hypernyms = relations.take(positive)
    return RelationDataset(hypernyms, lexical_split(hypernyms, fractions, seed),
                           relations.take(~positive))


def pair_rows(pairs: Relations, table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, found)``: the (n, 2) table rows of each pair's source and target, -1 for
    a missing word (it would read the last row), and which pairs have both words."""
    rows = pairs.rows(table)
    return rows, (rows >= 0).all(axis=1)


def bind(dataset: RelationDataset, table: EmbeddingTable) -> RelationDataset:
    """Drop, count and log the pairs with a word missing from ``table``.

    Each word is looked up once. The bound dataset's word list is
    ``table.vocab``, so its word ids are table rows.
    """
    lookup = _table_rows(dataset.words, table)
    positives, negatives = lookup[dataset.hypernyms.ids], lookup[dataset.negatives.ids]
    kept, kept_neg = (positives >= 0).all(axis=1), (negatives >= 0).all(axis=1)
    dropped_pos = len(kept) - int(np.count_nonzero(kept))
    dropped_neg = len(kept_neg) - int(np.count_nonzero(kept_neg))
    _log_dropped(dropped_pos, dropped_neg)
    return RelationDataset(
        Relations(table.vocab, positives[kept], dataset.hypernyms.codes[kept]),
        dataset.buckets[kept],
        Relations(table.vocab, negatives[kept_neg], dataset.negatives.codes[kept_neg]),
        dataset.dropped_positives + dropped_pos, dataset.dropped_negatives + dropped_neg,
        dataset.source_sha256)


def _log_dropped(positives: int, negatives: int) -> None:
    if positives or negatives:
        log.info("dropped %d positive and %d negative pair(s) not in the vocabulary",
                 positives, negatives)


def build_dataset(relations: Relations, table: EmbeddingTable,
                  fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
                  seed: int = 0) -> RelationDataset:
    """Split, then bind: the dataset that ``write_split`` then ``read_split_dir`` give."""
    return bind(split_relations(relations, fractions, seed), table)


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
    candidate list. Rows without candidates are empty. Built from the
    columns: the rows whose target is a validation or test word are
    masked, each (source, target) keeps its first row, and a stable sort
    by source row groups them. A source missing from the table trains
    nothing; a candidate missing from it is an error, the first in
    ``train_negatives`` order.
    """
    negatives = dataset.negatives
    keep = np.flatnonzero(~dataset._held_out()[negatives.ids[:, 1]])
    source_ids, target_ids = negatives.ids[keep].T
    key = source_ids.astype(np.int64) * len(dataset.words) + target_ids
    keep = keep[np.sort(np.unique(key, return_index=True)[1])]
    sources, cands = negatives.take(keep).rows(table).T
    trained = sources >= 0  # a source missing from the table trains nothing
    missing = np.flatnonzero(trained & (cands < 0))
    if missing.size:  # train_negatives lists sources by their first row among all negatives
        seen, first_row = np.unique(negatives.ids[:, 0], return_index=True)
        source_ids = negatives.ids[keep[missing], 0]
        at = missing[np.lexsort((missing, first_row[np.searchsorted(seen, source_ids)]))[0]]
        source, word = (dataset.words[i] for i in negatives.ids[keep[at]].tolist())
        raise InputError(f"negative {word!r} of {source!r} is not in the embedding table")
    sources, cands = sources[trained], cands[trained]
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
    paths = {name: out_dir / f"{name}.tsv" for name in SPLIT_FILES}
    for bucket in BUCKETS:
        write_relations(dataset.relations_in(bucket), paths[bucket])
    write_relations(dataset.negatives, paths["negatives"])
    return paths


def _read_ahead(paths: list[Path]) -> dict[Path, tuple[bytes, str]]:
    """The bytes and digest of each file of a split directory, read in order to key
    its cache entry; empty if a bucket file is missing or a file cannot be read,
    so that the parse reports that in its own order."""
    *buckets, negatives = paths
    files = {}
    for path in buckets + [negatives] * negatives.is_file():
        try:
            files[path] = read_hashed(path)
        except OSError:  # a missing bucket file too
            return {}
    return files


def _split_key(files: dict[Path, tuple[bytes, str]], table: EmbeddingTable) -> list[str] | None:
    """What a bound split's cache entry is keyed by: each file's digest in BUCKETS
    order, then negatives.tsv's or "none", then ``vocab_hash(table)``. None when no
    entry applies: a file could not be read ahead, or a word of the table holds a
    newline, so that its vocab_hash could name another vocabulary too."""
    if len(files) < len(BUCKETS) or not table._vocab_digest[1]:
        return None
    digests = [digest for _, digest in files.values()]
    if len(digests) == len(BUCKETS):
        digests.append("none")  # no negatives.tsv
    return [*digests, vocab_hash(table)]


def _whole(values: np.ndarray, low: int, high: int) -> bool:
    """Whether every value is an integer in [low, high)."""
    return bool(((values >= low) & (values < high) & (values == np.floor(values))).all())


def _cached_split(entry: Path, key: list[str], files: dict[Path, tuple[bytes, str]],
                  table: EmbeddingTable) -> RelationDataset | None:
    """The bound split a cache entry holds, its warnings and its drop message logged
    as the parse logs them, or None if the entry is missing, unsound or another key's."""
    try:
        header, payload = read_container(entry, SPLIT_MAGIC)
        n, m, duplicates, dropped = (header["positives"], header["negatives"],
                                     header["duplicates"], header["dropped"])
        counts = [n, m, *duplicates, *dropped]
        sound = (header["version"] == SPLIT_CACHE_VERSION and header["key"] == key
                 and all(type(c) is int and c >= 0 for c in counts)
                 and len(duplicates) == len(SPLIT_FILES) and len(dropped) == 2
                 and payload.size == 4 * n + 3 * m)
    except (OSError, InputError, TypeError, KeyError):
        return None
    if not sound:
        return None
    pos, pos_codes, buckets, neg, neg_codes = np.split(payload, np.cumsum([2 * n, n, n, 2 * m]))
    vocab = len(table)
    if not (_whole(pos, 0, vocab) and _whole(pos_codes, HYPERNYM, HYPERNYM + 1)
            and _whole(buckets, 0, len(BUCKETS)) and _whole(neg, 0, vocab)
            and _whole(neg_codes, HYPERNYM + 1, len(RELATIONS))):
        return None
    _touch(entry)
    for path, count in zip(files, duplicates):  # a missing negatives.tsv dropped none
        _warn_duplicates(path, count)
    _log_dropped(*dropped)
    bound = RelationDataset(
        Relations(table.vocab, pos.astype(np.intp).reshape(n, 2), pos_codes.astype(np.int8)),
        buckets.astype(np.int8),
        Relations(table.vocab, neg.astype(np.intp).reshape(m, 2), neg_codes.astype(np.int8)),
        *dropped, {path: digest for path, (_, digest) in files.items()})
    bound.cache_status = "hit"
    return bound


def read_split_dir(split_dir: str | Path, table: EmbeddingTable,
                   cache: str | Path | None = None) -> RelationDataset:
    """Bind the split in a directory written by write_split to ``table``.

    Each file is read once, into columns over one word list, and ``bind``
    then makes the ids table rows; the dataset's ``source_sha256`` names
    the bytes read. Every row of a bucket file must be a hypernym and no
    row of ``negatives.tsv`` may be one; otherwise the first row that breaks
    this is an ``InputError``.

    Given a ``cache`` directory, the bound split is looked up there first,
    keyed by the digests of the bytes read and the table's vocabulary
    (``_split_key``); a hit builds it from the stored table rows and logs
    the parse's warnings and drop message again, with this call's paths. A
    miss parses the same bytes and stores the bound split, if it loads.
    The dataset's ``cache_status`` tells which; None parses every time.
    """
    split_dir = Path(split_dir)
    paths = [split_dir / f"{name}.tsv" for name in SPLIT_FILES]
    files = _read_ahead(paths) if cache is not None else {}
    key, entry = _split_key(files, table), None
    if key is not None:
        name = hashlib.sha256(" ".join(key).encode("ascii")).hexdigest()
        entry = _entry_path(cache, name, SPLIT_CACHE_VERSION, ".hpsplit")
        cached = _cached_split(entry, key, files, table)
        if cached is not None:
            return cached
    words = _Words()
    digests: dict[Path, str] = {}
    duplicates = [0] * len(paths)

    def read(i: int, positive: bool) -> tuple[np.ndarray, np.ndarray]:
        path = paths[i]
        data, digests[path] = files[path] if path in files else _read_file(path)
        ids, codes, duplicates[i] = _parse(path, data, words)
        wrong = np.flatnonzero((codes == HYPERNYM) != positive)
        if wrong.size:
            row = (*map(words.words.__getitem__, ids[wrong[0]].tolist()),
                   RELATIONS[codes[wrong[0]]])
            holds = "only hypernym rows" if positive else "no hypernym rows"
            raise InputError(f"{path}: row {row} is a {row[2]} pair, "
                             f"but {path.name} holds {holds}")
        return ids, codes

    parts = []
    for i, bucket in enumerate(BUCKETS):
        if not paths[i].is_file():
            raise InputError(f"split directory is missing {bucket}.tsv")
        parts.append(read(i, True))
    negatives = (read(len(BUCKETS), False) if paths[-1].is_file()
                 else (np.empty((0, 2), np.intp), np.empty(0, np.int8)))
    (pos, pos_codes), (neg, neg_codes) = [np.concatenate(c) for c in zip(*parts)], negatives
    buckets = np.repeat(np.arange(len(BUCKETS), dtype=np.int8), [len(c) for _, c in parts])
    every, pos, neg = words.dense(pos, neg)
    bound = bind(RelationDataset(Relations(every, pos, pos_codes), buckets,
                                 Relations(every, neg, neg_codes), source_sha256=digests), table)
    if entry is not None:  # only a split that loads gets an entry
        header = {"version": SPLIT_CACHE_VERSION, "key": key, "positives": len(bound.hypernyms),
                  "negatives": len(bound.negatives), "duplicates": duplicates,
                  "dropped": [bound.dropped_positives, bound.dropped_negatives]}
        _store(entry, SPLIT_MAGIC, header, bound.hypernyms.ids, bound.hypernyms.codes,
               bound.buckets, bound.negatives.ids, bound.negatives.codes)
        bound.cache_status = "miss"
    return bound
