"""Dense word embedding tables: loading, saving and per-row scaling.

Two on-disk formats are supported: plain text (``word v1 v2 ... vd`` per
line, optional ``count dim`` header, which must then give the number of rows,
duplicates included, and their dimension) and the conventional word2vec binary
layout (ASCII ``count dim\\n`` header, then per word a space-terminated
token followed by d little-endian float32 values). Vectors are held as
float64 internally regardless of the file precision.

Text components parse with Python ``float()``, in blocks of whole rows
(``PARSE_TOKENS`` components at most), with no error bookkeeping: a text
file that fails any check is read again, line by line, by
``_raise_first_bad_line``, as a relations file is (see ``dataset``). Its
error is that of its first failing line, where an unparsable component comes
before a dimension mismatch, which comes before a non-finite value. Binary
payloads are converted in one call, and report their first failing word.

``load_embeddings`` has one flow for every format and cache setting: hash
the file (``file_sha256``); given a ``cache`` directory (see ``cache``),
look a text file's parse up there by that digest; else parse the file as it
is read, hash it again, which must give the same digest, and store the
parse, unless the file fails to load. A hit reads the file once, a miss
three times, and every table's ``source_sha256`` names the bytes it came
from. A table entry (``.hptab``, CACHE_VERSION) holds CACHE_MAGIC, a header
of version, sha256, count, dim and the words in file order, duplicates
included, joined by spaces (which no word holds), and the row-major float64
rows, so a hit gives the table a parse gives: duplicates, their warning and
``normalize`` are applied after either. The table's ``cache_status`` is
"hit" or "miss" when the file was looked up, else None. A binary file is
hashed but never cached: its float64 entry would be twice the file's size,
and on a large table (70k rows of 100) a hit saved only about a seventh of
a parse while a miss cost about a third more.

A table keeps from construction each row's norm (``_row_norms``), and the
power of two and scaled norm of ``ranking._quarters`` (``_shifts`` and
``_quarter_norms``, 12 bytes a row); from the first ranking call, its float32
unit columns (``ranking.unit_columns``). Ranking lives in ``ranking``;
``nearest_neighbors`` is its ``top_cosines`` of one query, by word.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import ranking
from .cache import entry_path, lookup, store
from .errors import InputError, atomic_open, file_sha256, utf8_lines

log = logging.getLogger(__name__)

TEXT_PRECISION = 9  # significant digits written by save_embeddings_text
PARSE_TOKENS = 1 << 15  # components _parse_text converts at once: max(1, PARSE_TOKENS // dim) rows
# below this a row's sum of squares underflows to a subnormal or to 0
NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
FORMATS = ("text", "binary")
CACHE_MAGIC = b"HPTAB1"
CACHE_VERSION = 3  # in each entry's name and header: entries of other rules are not read


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """L2 norm of each row, without overflow or underflow: a row whose plain norm
    overflowed or fell below NORM_FLOOR is measured again through
    ``ranking._below_one``, the others keep ``np.linalg.norm``'s bits. A norm above
    the float64 maximum is inf, which ``EmbeddingTable`` rejects. Rows are measured
    ``ranking.BLOCK_ENTRIES`` entries at a time, read at each call: each row's norm
    is its own reduction, and the squares of the whole table are never held at once."""
    norms = np.empty(len(vectors))
    step = max(1, ranking.BLOCK_ENTRIES // vectors.shape[1])
    with np.errstate(over="ignore", under="ignore"):
        for first in range(0, len(vectors), step):
            norms[first:first + step] = np.linalg.norm(vectors[first:first + step], axis=1)
        redo = np.flatnonzero((norms < NORM_FLOOR) | (norms == np.inf))
        scaled, exponent = ranking._below_one(vectors[redo])
        norms[redo] = np.ldexp(np.linalg.norm(scaled, axis=1), exponent[:, 0])
    return norms


@dataclass(eq=False)
class EmbeddingTable:
    """Vocabulary plus row vectors; immutable after construction.

    Attributes:
        vocab: unique words, row order of ``vectors``.
        vectors: (len(vocab), dim) float64 matrix.
        normalized: rows were scaled to unit L2 norm at load time.
        source_sha256: SHA-256 of the file bytes ``load_embeddings`` read
            the table from; empty for a table built in memory.
        cache_status: "hit" or "miss" when ``load_embeddings`` looked the
            file up in a cache directory, else None.
    """

    vocab: list[str]
    vectors: np.ndarray
    normalized: bool = False
    source_sha256: str = field(default="", repr=False)
    # word -> row; a caller that already holds it for ``vocab`` may pass it
    _index: dict[str, int] | None = field(default=None, repr=False)
    _row_norms: np.ndarray = field(init=False, repr=False)
    # row j times 2^_shifts[j] has norm _quarter_norms[j] in [1/4, 1/2), 0 for a zero
    # row (``ranking._quarters``): how every ranking product sees the row
    _shifts: np.ndarray = field(init=False, repr=False)
    _quarter_norms: np.ndarray = field(init=False, repr=False)
    _dead: np.ndarray = field(init=False, repr=False)  # the zero rows
    cache_status: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise InputError("embedding matrix must be 2-dimensional")
        if len(self.vocab) != self.vectors.shape[0]:
            raise InputError(
                f"vocabulary size {len(self.vocab)} does not match "
                f"{self.vectors.shape[0]} vector rows"
            )
        if self.vectors.shape[1] < 1:
            raise InputError("embedding dimension must be at least 1")
        if not np.isfinite(self.vectors).all():
            raise InputError("embedding matrix contains non-finite values")
        if self._index is None:
            self._index = {w: i for i, w in enumerate(self.vocab)}
            if len(self._index) != len(self.vocab):
                raise InputError("vocabulary contains duplicate words")
        self._row_norms = _row_norms(self.vectors)
        huge = np.flatnonzero(self._row_norms == np.inf)
        if huge.size:
            raise InputError(f"row {huge[0] + 1} ({self.vocab[huge[0]]!r}) has an L2 norm "
                             "above the float64 maximum")
        self._shifts, self._quarter_norms = ranking._quarters(self.vectors, self._row_norms)
        self._dead = np.flatnonzero(self._row_norms == 0.0)
        if self.normalized and np.abs(self._row_norms - 1.0).max() > 1e-6:
            raise InputError("normalized table has rows with L2 norm far from 1")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @functools.cached_property
    def _unit_columns(self) -> np.ndarray:
        """``ranking.unit_columns``, built by the first ranking call and kept."""
        return ranking.unit_columns(self)

    @functools.cached_property
    def _vocab_digest(self) -> tuple[str, bool]:
        """``vocab_hash``'s digest, and whether it names the vocabulary: true
        unless a word holds a newline, so that two vocabularies join alike.
        Computed by the first caller and kept, as the table is immutable."""
        joined = "\n".join([*self.vocab, ""])
        return (hashlib.sha256(joined.encode("utf-8")).hexdigest(),
                joined.count("\n") == len(self.vocab))

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def lookup(self, word: str) -> int | None:
        """Row index of ``word``, or None if absent."""
        return self._index.get(word)

    def vector(self, word: str) -> np.ndarray:
        idx = self._index.get(word)
        if idx is None:
            raise KeyError(word)
        return self.vectors[idx]

    def rows(self, words: list[str]) -> np.ndarray:
        """Stacked vectors for ``words`` (all must be present)."""
        return self.vectors[[self._index[w] for w in words]]


@dataclass(eq=False)
class NeighborList:
    """Ranked similarity search result.

    ``entries`` is ordered by descending score; ties are broken by
    ascending vocabulary index, so results are fully deterministic.
    """

    query: np.ndarray
    entries: list[tuple[str, float]]

    def words(self) -> list[str]:
        return [w for w, _ in self.entries]


def _normalize_rows(vectors: np.ndarray, origin: str) -> np.ndarray:
    norms = _row_norms(vectors)
    bad = np.flatnonzero((norms == 0.0) | (norms == np.inf))
    if bad.size:
        what = ("zero vector cannot be normalized" if norms[bad[0]] == 0.0
                else "L2 norm above the float64 maximum")
        raise InputError(f"{origin}: {what} (row {bad[0] + 1})")
    return vectors / norms[:, None]


def _finish(words: list[str], vectors: np.ndarray, normalize: bool,
            path: str, digest: str) -> EmbeddingTable:
    """Table of the first occurrence of each word, in file order."""
    n = len(words)
    first = dict(zip(reversed(words), range(n - 1, -1, -1)))  # word -> its first row
    if len(first) < n:
        log.warning("%s: dropped %d duplicate word(s), kept first occurrence",
                    path, n - len(first))
        keep = np.sort(np.fromiter(first.values(), np.intp, count=len(first)))
        words, vectors = [words[i] for i in keep], vectors[keep]
        first = None  # the kept rows moved up; the table indexes them itself
    if normalize:
        vectors = _normalize_rows(vectors, path)
    return EmbeddingTable(words, vectors, normalized=normalize, source_sha256=digest,
                          _index=first)


def _parse_text(path: Path) -> tuple[list[str], np.ndarray]:
    """Words and rows of the text file ``path``, parsed as it is read, PARSE_TOKENS
    components at most at a time; any failure is reported by _raise_first_bad_line."""
    words: list[str] = []
    blocks: list[np.ndarray] = []
    tokens: list[str] = []  # components of the rows not parsed yet
    count = dim = None  # of the `count dim` header, else dim is the first row's
    try:
        for lineno, line in utf8_lines(path):
            parts = line.rstrip("\n").split(" ")
            if parts[-1] == "":  # a blank line, or one trailing space
                parts.pop()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                count, dim = int(parts[0]), int(parts[1])
                if count < 1 or dim < 1:
                    raise ValueError("bad header")
                continue
            dim = len(parts) - 1 if dim is None else dim
            if len(parts) < 2 or len(parts) - 1 != dim:
                raise ValueError("bad row")
            words.append(parts[0])
            tokens += parts[1:]
            if len(tokens) > PARSE_TOKENS - dim:  # max(1, PARSE_TOKENS // dim) rows
                blocks.append(np.fromiter(map(float, tokens), np.float64, count=len(tokens)))
                tokens = []
        blocks.append(np.fromiter(map(float, tokens), np.float64, count=len(tokens)))
    except (InputError, ValueError):  # not UTF-8, a bad header, row or component
        _raise_first_bad_line(path)
    if not words:
        raise InputError(f"{path}: no embedding rows found")
    vectors = np.concatenate(blocks).reshape(len(words), dim)
    if not np.isfinite(vectors).all():
        _raise_first_bad_line(path)
    if count is not None and count != len(words):
        raise InputError(f"{path}: header declares {count} rows, the file holds {len(words)}")
    return words, vectors


def _raise_first_bad_line(path: Path) -> NoReturn:
    """Raise the error of the first line of the text file ``path`` that fails a check
    of ``_parse_text``; within a line, an unparsable component comes before a
    dimension mismatch, which comes before a non-finite value."""
    dim = None
    for lineno, line in utf8_lines(path):
        parts = line.rstrip("\n").split(" ")
        if parts[-1] == "":
            parts.pop()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
            count, dim = int(parts[0]), int(parts[1])
            if count < 1 or dim < 1:
                raise InputError(f"{path}: header declares count={count} dim={dim}")
            continue
        if len(parts) < 2:
            raise InputError(f"{path}:{lineno}: expected `word v1 ... vd`")
        try:
            row = [float(t) for t in parts[1:]]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: unparsable vector component ({exc})") from None
        dim = len(row) if dim is None else dim
        if len(row) != dim:
            raise InputError(
                f"{path}:{lineno}: dimension mismatch (got {len(row)}, expected {dim})")
        if not all(map(math.isfinite, row)):
            raise InputError(f"{path}:{lineno}: non-finite vector component")
    raise AssertionError(f"{path}: the block parse failed, yet no line does")


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def _binary_rows(words: list[str], payloads: list[bytes], dim: int, path: Path) -> np.ndarray:
    """float64 rows of the float32 ``payloads``; the first non-finite one is reported."""
    vectors = np.frombuffer(b"".join(payloads), dtype="<f4").reshape(len(words), dim)
    vectors = vectors.astype(np.float64)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        word = words[int(np.argmin(finite))]
        raise InputError(f"{path}: non-finite value in vector for {word!r}")
    return vectors


def _parse_binary(path: Path) -> tuple[list[str], np.ndarray]:
    """Words and rows of the word2vec binary file ``path``."""
    data = path.read_bytes()
    if not data:
        raise InputError(f"{path}: empty file")
    nl = data.find(b"\n")
    if nl < 0:
        raise InputError(f"{path}: missing `count dim` header")
    header = data[:nl].split()
    if len(header) != 2 or not all(_is_int(t.decode("ascii", "replace")) for t in header):
        raise InputError(f"{path}: malformed header {data[:nl]!r}")
    count, dim = int(header[0]), int(header[1])
    if count < 1 or dim < 1:
        raise InputError(f"{path}: header declares count={count} dim={dim}")
    vec_bytes = 4 * dim
    pos = nl + 1
    words: list[str] = []
    payloads: list[bytes] = []
    try:
        for i in range(count):
            while pos < len(data) and data[pos : pos + 1] in (b"\n", b" "):
                pos += 1
            end = data.find(b" ", pos)
            if end < 0 or end + 1 + vec_bytes > len(data):  # payload starts after the space
                raise InputError(f"{path}: truncated at word {i + 1} of {count}")
            try:
                words.append(data[pos:end].decode("utf-8"))
            except UnicodeDecodeError:
                raise InputError(
                    f"{path}: word {i + 1} of {count} is not valid UTF-8 ({data[pos:end]!r})"
                ) from None
            pos = end + 1 + vec_bytes
            payloads.append(data[end + 1:pos])
    except InputError:
        _binary_rows(words, payloads, dim, path)  # the words read before fail first
        raise
    return words, _binary_rows(words, payloads, dim, path)


def _entry_rows(header: dict, rows: np.ndarray) -> tuple[list[str], np.ndarray] | None:
    """The words and rows of a table entry's ``header`` and payload, or None if they disagree."""
    words, count, dim = header["words"].split(" "), header["count"], header["dim"]
    sound = (type(count) is int and type(dim) is int and count >= 1 and dim >= 1
             and len(words) == count and rows.size == count * dim)
    return (words, rows.reshape(count, dim)) if sound else None


def load_embeddings(path: str | Path, format: str = "text", normalize: bool = False,
                    cache: str | Path | None = None) -> EmbeddingTable:
    """Load an embedding file.

    Args:
        path: file to read.
        format: "text" or "binary" (word2vec layouts, see module docstring).
        normalize: scale every row to unit L2 norm; zero vectors are
            rejected when set.
        cache: directory of parsed tables to look the file up in and to
            store its parse in (see module docstring); None parses the
            file every time and writes nothing.

    Duplicate words keep their first occurrence and log a warning. Words
    are matched verbatim (no case folding). The table's ``source_sha256``
    is the SHA-256 of the bytes it came from.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"embedding file not found: {path}")
    if format not in FORMATS:
        raise InputError(f"unknown embedding format {format!r} (expected text or binary)")
    digest = file_sha256(path)
    entry = None  # binary files are never cached, see the module docstring
    if cache is not None and format == "text":
        entry = entry_path(cache, digest, CACHE_VERSION, ".hptab")
        cached = lookup(entry, CACHE_MAGIC, CACHE_VERSION, "sha256", digest, _entry_rows)
        if cached is not None:
            table = _finish(*cached, normalize, str(path), digest)
            table.cache_status = "hit"
            return table
    parsed = (_parse_text if format == "text" else _parse_binary)(path)
    if file_sha256(path) != digest:
        raise InputError(f"{path}: changed while it was read")
    table = _finish(*parsed, normalize, str(path), digest)
    if entry is not None:  # only a file that loads gets an entry
        words, vectors = parsed
        store(entry, CACHE_MAGIC, {"version": CACHE_VERSION, "sha256": digest, "count": len(words),
                                   "dim": vectors.shape[1], "words": " ".join(words)}, vectors)
        table.cache_status = "miss"
    return table


def save_embeddings_text(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in the text format with a `count dim` header.

    Components are printed with 9 significant digits; values that fit in
    that precision round-trip bitwise through load_embeddings.
    """
    row = "%s" + f" %.{TEXT_PRECISION}g" * table.dim + "\n"
    with atomic_open(path) as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        # one row of Python floats at a time: a whole-table tolist() holds 4x the table
        fh.writelines(row % (word, *values.tolist())
                      for word, values in zip(table.vocab, table.vectors))



def nearest_neighbors(table: EmbeddingTable, query: np.ndarray, l: int,
                      exclude: str | None = None) -> NeighborList:
    """The ``l`` words of best exact cosine with ``query``: ``ranking.top_cosines``
    of one query, leaving out the word ``exclude`` when the table holds it.

    Zero-norm rows are unusable and never returned. If ``l`` exceeds the
    usable vocabulary, all usable words are returned. A zero query vector
    is an error (similarity undefined).
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != table.dim:
        raise InputError(f"query has dimension {query.shape[0]}, table has {table.dim}")
    if not query.any():
        raise InputError("cosine similarity is undefined for a zero query vector")
    rows, scores = ranking.top_cosines(table, query[None, :], l,
                                       None if exclude is None else table.lookup(exclude))
    return NeighborList(query, [(table.vocab[i], s)
                                for i, s in zip(rows.tolist(), scores.tolist())])


def vocab_hash(table: EmbeddingTable) -> str:
    """SHA-256 over the newline-joined vocabulary; recorded in model files and in
    a bound split's cache key. Computed once per table."""
    return table._vocab_digest[0]
