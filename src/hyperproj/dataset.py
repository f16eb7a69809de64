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

``RelationPair`` remains at the library's word-level edge:
``load_relations`` returns them, the ``RelationDataset(positives,
assignment, negative_pairs)`` constructor takes them, and the dataset's
``positives``, ``assignment``, ``negative_pairs``, ``pairs_in``,
``vocabulary`` and ``train_negatives`` views build them row by row, each
time one is called. ``pair_rows`` resolves pairs of either form to table
rows for evaluation, clustering and training, which callers may hand
lists; each keeps its own policy for a pair with a missing word.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from .embeddings import EmbeddingTable
from .errors import InputError, atomic_open, read_hashed, utf8_lines

log = logging.getLogger(__name__)

RELATIONS = ("hypernym", "synonym", "cohyponym")
BUCKETS = ("train", "validation", "test")
DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)  # of the positive pairs, in BUCKETS order
HYPERNYM = RELATIONS.index("hypernym")  # the relation code of a positive

_RELATION_CODES = {name: code for code, name in enumerate(RELATIONS)}
_BUCKET_CODES = {name: code for code, name in enumerate(BUCKETS)}
_ROW_ENDS = tuple(f"\t{name}\n" for name in RELATIONS)  # a written row's last column


class RelationPair(NamedTuple):
    source: str
    target: str
    relation: str


def _codes(labels: Sequence[str], codes: dict[str, int], what: str) -> np.ndarray:
    """The int8 code of each label; an unknown label is an InputError."""
    try:
        return np.fromiter(map(codes.__getitem__, labels), np.int8, len(labels))
    except KeyError as exc:
        raise InputError(f"unknown {what} {exc.args[0]!r}") from None


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


def _encode(pairs: Sequence[RelationPair], words: _Words) -> tuple[np.ndarray, np.ndarray]:
    """Word ids and relation codes of word-level pairs."""
    ids = words.ids([word for pair in pairs for word in pair[:2]])
    return ids, _codes(list(map(itemgetter(2), pairs)), _RELATION_CODES, "relation")


def _table_rows(words: list[str], table: EmbeddingTable) -> np.ndarray:
    """The table row of each word, -1 for a word missing from ``table``: one lookup a word."""
    return np.fromiter(map(table._index.get, words, repeat(-1)), np.intp, len(words))


@dataclass(frozen=True, eq=False)
class Relations:
    """Relation rows as columns; a read-only sequence of RelationPair.

    ``ids[i]`` holds the indexes into ``words`` of row i's source and
    target, and ``codes[i]`` its relation's index in RELATIONS. When
    ``words`` is an embedding table's vocabulary, the ids are its rows.
    Indexing or iterating builds RelationPair rows as it goes.
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

    @classmethod
    def of(cls, pairs: Sequence[RelationPair] | Relations) -> Relations:
        """Word-level pairs as columns; a Relations is returned as it is."""
        if isinstance(pairs, Relations):
            return pairs
        words = _Words()
        ids, codes = _encode(pairs, words)
        words, ids = words.dense(ids)
        return cls(words, ids, codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> RelationPair:
        source, target = self.ids[i].tolist()
        return RelationPair._make((self.words[source], self.words[target],
                                   RELATIONS[self.codes[i]]))

    def __iter__(self) -> Iterator[RelationPair]:
        sources, targets = self.ids.T.tolist()
        word = self.words.__getitem__
        return map(RelationPair._make, zip(map(word, sources), map(word, targets),
                                           map(RELATIONS.__getitem__, self.codes.tolist())))

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
    parsed to the SHA-256 of its bytes.

    ``RelationDataset(positives, assignment, negative_pairs)`` builds one
    from word-level pairs and their BUCKETS labels. ``train_negatives``
    (built on first use) maps each source to its distinct negatives outside
    the validation and test vocabularies, keeping the split during sampling.
    """

    def __init__(self, positives: Sequence[RelationPair], assignment: Sequence[str],
                 negative_pairs: Sequence[RelationPair], dropped_positives: int = 0,
                 dropped_negatives: int = 0):
        if len(positives) != len(assignment):
            raise InputError("assignment must be parallel to positives")
        words = _Words()
        pos, pos_codes = _encode(positives, words)
        neg, neg_codes = _encode(negative_pairs, words)
        words, pos, neg = words.dense(pos, neg)
        self._set(Relations(words, pos, pos_codes), _codes(assignment, _BUCKET_CODES, "bucket"),
                  Relations(words, neg, neg_codes), dropped_positives, dropped_negatives, {})

    @classmethod
    def from_columns(cls, hypernyms: Relations, buckets: np.ndarray, negatives: Relations,
                     dropped_positives: int = 0, dropped_negatives: int = 0,
                     source_sha256: dict[Path, str] | None = None) -> RelationDataset:
        """A dataset of columns over one word list, kept as they are."""
        if hypernyms.words is not negatives.words or len(hypernyms) != len(buckets):
            raise InputError("columns must share one word list, and buckets the positives' rows")
        dataset = cls.__new__(cls)
        dataset._set(hypernyms, buckets, negatives, dropped_positives, dropped_negatives,
                     source_sha256 or {})
        return dataset

    def _set(self, hypernyms: Relations, buckets: np.ndarray, negatives: Relations,
             dropped_positives: int, dropped_negatives: int,
             source_sha256: dict[Path, str]) -> None:
        self.hypernyms = hypernyms
        self.buckets = buckets
        self.negatives = negatives
        self.dropped_positives = dropped_positives
        self.dropped_negatives = dropped_negatives
        self.source_sha256 = source_sha256

    @property
    def words(self) -> list[str]:
        return self.hypernyms.words

    @property
    def positives(self) -> list[RelationPair]:
        return list(self.hypernyms)

    @property
    def assignment(self) -> list[str]:
        return list(map(BUCKETS.__getitem__, self.buckets.tolist()))

    @property
    def negative_pairs(self) -> list[RelationPair]:
        return list(self.negatives)

    def relations_in(self, bucket: str) -> Relations:
        """The bucket's positive rows, in order, as columns."""
        if bucket not in BUCKETS:
            raise InputError(f"unknown bucket {bucket!r}")
        return self.hypernyms.take(self.buckets == _BUCKET_CODES[bucket])

    def pairs_in(self, bucket: str) -> list[RelationPair]:
        return list(self.relations_in(bucket))

    def vocabulary(self, bucket: str) -> set[str]:
        return set(map(self.words.__getitem__, np.unique(self.relations_in(bucket).ids).tolist()))

    @cached_property
    def train_negatives(self) -> dict[str, list[str]]:
        held_out = self.vocabulary("validation") | self.vocabulary("test")
        negatives: dict[str, list[str]] = {}
        for pair in self.negatives:
            cands = negatives.setdefault(pair.source, [])  # keys keep first-seen order
            if pair.target not in held_out and pair.target not in cands:
                cands.append(pair.target)
        return {src: cands for src, cands in negatives.items() if cands}


def _parse(path: Path, words: _Words) -> tuple[np.ndarray, np.ndarray, str]:
    """The word ids and relation codes of a relations file's distinct rows, in file
    order, and the SHA-256 of the bytes parsed.

    The file is decoded, split and checked whole. Rows of exactly three
    columns, the usual case, are cut into columns by one join and one split
    of the whole text; only a file with a row of more columns cuts each row
    to three first. A file that fails a check is scanned line by line by
    ``_raise_first_bad_line``.
    """
    if not path.is_file():
        raise InputError(f"relations file not found: {path}")
    data, digest = read_hashed(path)
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
    codes = _codes(relations, _RELATION_CODES, "relation")
    # one key per distinct row; it fits an int64 below 1.7e9 words met
    key = (ids[:, 0].astype(np.int64) * len(words) + ids[:, 1]) * len(RELATIONS) + codes
    first = np.unique(key, return_index=True)[1]
    if len(first) < len(key):
        log.warning("%s: dropped %d duplicate row(s)", path, len(key) - len(first))
        first.sort()  # the first of each, in file order
        ids, codes = ids[first], codes[first]
    return ids, codes, digest


def read_relations(path: str | Path) -> Relations:
    """A relations TSV as columns: the rows ``load_relations`` returns, in file order,
    with the same checks, warnings and errors, and no Python object per row."""
    words = _Words()
    ids, codes, digest = _parse(Path(path), words)
    return Relations(*words.dense(ids), codes, digest)


def load_relations(path: str | Path) -> list[RelationPair]:
    """Parse a relations TSV, preserving file order.

    Lines starting with ``#`` are ignored. Exact duplicate rows are
    dropped with a warning reporting the count. The file is decoded,
    split and checked whole, in one pass; a file that fails is then
    scanned line by line, to report its first failing line.
    """
    return list(read_relations(path))


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


def write_relations(pairs: Iterable[RelationPair] | Relations, path: str | Path) -> None:
    """Write pairs as a relations TSV, the format ``load_relations`` reads. The text
    of a Relations is one join of its columns: source, tab, target, tab-relation-newline."""
    if not isinstance(pairs, Relations):
        with atomic_open(path) as fh:
            fh.writelines(f"{p.source}\t{p.target}\t{p.relation}\n" for p in pairs)
        return
    sources, targets = pairs.ids.T.tolist()
    parts = [""] * (4 * len(pairs))
    parts[0::4] = map(pairs.words.__getitem__, sources)
    parts[1::4] = repeat("\t", len(pairs))
    parts[2::4] = map(pairs.words.__getitem__, targets)
    parts[3::4] = map(_ROW_ENDS.__getitem__, pairs.codes.tolist())
    with atomic_open(path) as fh:
        fh.write("".join(parts))


def validate_fractions(fractions: tuple[float, float, float]) -> None:
    if len(fractions) != 3:
        raise InputError("fractions must be (train, validation, test)")
    if not all(math.isfinite(f) and f > 0 for f in fractions):
        raise InputError(f"fractions must be positive and finite, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InputError(f"fractions must sum to 1, got {sum(fractions)}")


def lexical_split(pairs: Sequence[RelationPair] | Relations,
                  fractions: tuple[float, float, float], seed: int) -> list[str]:
    """Assign whole word-graph components to buckets.

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
    relations = Relations.of(pairs)
    if not len(relations):
        return []
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
    return list(map(BUCKETS.__getitem__, np.take(placed, component).tolist()))


def split_relations(pairs: Sequence[RelationPair] | Relations,
                    fractions: tuple[float, float, float], seed: int) -> RelationDataset:
    """Split the hypernym rows lexically; the other rows are the negative pairs."""
    relations = Relations.of(pairs)
    positive = relations.codes == HYPERNYM
    hypernyms = relations.take(positive)
    buckets = _codes(lexical_split(hypernyms, fractions, seed), _BUCKET_CODES, "bucket")
    return RelationDataset.from_columns(hypernyms, buckets, relations.take(~positive))


def pair_rows(pairs: Sequence | Relations,
              table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, found)``: the (n, 2) table rows of each pair's source and target, -1 for
    a missing word (it would read the last row), and which pairs have both words."""
    if isinstance(pairs, Relations):
        rows = pairs.rows(table)
        return rows, (rows >= 0).all(axis=1)
    get = table._index.get  # one dict lookup per word, without a method call
    rows = np.array([np.fromiter(map(get, map(itemgetter(col), pairs), repeat(-1)),
                                 np.intp, len(pairs)) for col in (0, 1)])
    return rows.T, (rows >= 0).all(axis=0)  # (n, 2), each column contiguous


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
    if dropped_pos or dropped_neg:
        log.info("dropped %d positive and %d negative pair(s) not in the vocabulary",
                 dropped_pos, dropped_neg)
    return RelationDataset.from_columns(
        Relations(table.vocab, positives[kept], dataset.hypernyms.codes[kept]),
        dataset.buckets[kept],
        Relations(table.vocab, negatives[kept_neg], dataset.negatives.codes[kept_neg]),
        dataset.dropped_positives + dropped_pos, dataset.dropped_negatives + dropped_neg,
        dataset.source_sha256)


def build_dataset(pairs: Sequence[RelationPair] | Relations, table: EmbeddingTable,
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
    candidate list. Rows without candidates are empty. Built from the
    columns: the rows whose target is a validation or test word are
    masked, each (source, target) keeps its first row, and a stable sort
    by source row groups them. A source missing from the table trains
    nothing; a candidate missing from it is an error, the first in
    ``train_negatives`` order.
    """
    negatives = dataset.negatives
    held_out = np.zeros(len(dataset.words), dtype=bool)
    held_out[dataset.hypernyms.ids[dataset.buckets != _BUCKET_CODES["train"]]] = True
    keep = np.flatnonzero(~held_out[negatives.ids[:, 1]])
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
    paths = {name: out_dir / f"{name}.tsv" for name in (*BUCKETS, "negatives")}
    for bucket in BUCKETS:
        write_relations(dataset.relations_in(bucket), paths[bucket])
    write_relations(dataset.negatives, paths["negatives"])
    return paths


def read_split_dir(split_dir: str | Path, table: EmbeddingTable) -> RelationDataset:
    """Bind the split in a directory written by write_split to ``table``.

    Each file is read once, into columns over one word list, and ``bind``
    then makes the ids table rows; the dataset's ``source_sha256`` names
    the bytes parsed. Every row of a
    bucket file must be a hypernym and no row of ``negatives.tsv`` may be
    one; otherwise the first row that breaks this is an ``InputError``.
    """
    split_dir = Path(split_dir)
    words = _Words()
    digests: dict[Path, str] = {}

    def read(name: str, positive: bool) -> tuple[np.ndarray, np.ndarray]:
        path = split_dir / f"{name}.tsv"
        ids, codes, digests[path] = _parse(path, words)
        wrong = np.flatnonzero((codes == HYPERNYM) != positive)
        if wrong.size:
            row = (*map(words.words.__getitem__, ids[wrong[0]].tolist()),
                   RELATIONS[codes[wrong[0]]])
            holds = "only hypernym rows" if positive else "no hypernym rows"
            raise InputError(f"{path}: row {row} is a {row[2]} pair, "
                             f"but {path.name} holds {holds}")
        return ids, codes

    parts = []
    for bucket in BUCKETS:
        if not (split_dir / f"{bucket}.tsv").is_file():
            raise InputError(f"split directory is missing {bucket}.tsv")
        parts.append(read(bucket, True))
    negatives = (read("negatives", False) if (split_dir / "negatives.tsv").is_file()
                 else (np.empty((0, 2), np.intp), np.empty(0, np.int8)))
    (pos, pos_codes), (neg, neg_codes) = [np.concatenate(c) for c in zip(*parts)], negatives
    buckets = np.repeat(np.arange(len(BUCKETS), dtype=np.int8), [len(c) for _, c in parts])
    every, pos, neg = words.dense(pos, neg)
    return bind(RelationDataset.from_columns(Relations(every, pos, pos_codes), buckets,
                                             Relations(every, neg, neg_codes),
                                             source_sha256=digests), table)
