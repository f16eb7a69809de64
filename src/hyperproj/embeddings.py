"""Dense word embedding tables and brute-force nearest-neighbor search.

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

Similarity search has one exact scorer, ``_per_row_cosines``, on chosen
rows: each dot product is numpy's own float64 per-row product of one query and
one row, so a score depends on neither the other queries, the other rows, the
BLAS library nor its threads. Ranking runs one float32 matrix product of unit
queries against the table's kept float32 unit columns (``_unit_columns``, 4
bytes an entry, half the table's size), then scores exactly only the rows
within ``tie_window`` of a cut, so every rank and score is that of an exact
float64 scan. ``gold_ranks`` ranks a gold row per query from one product of
many queries (``_window_ranks``): the rows above the window of the gold row's
float64 estimate are counted, and the rows inside it, read off the same
product, are scored exactly. ``top_cosines`` keeps every row within the window
of the l-th best of one product of few queries (``_product_scores``) and scores
those exactly. Each float32 score is compared with window ends computed in
float64 and rounded outward to float32 (``_float32_end``).
``nearest_neighbors`` is ``top_cosines`` of one query; the tests keep a
whole-vocabulary scan as their oracle.
Queries and rows alike are first scaled by the power of two that brings
their norm into [1/4, 1/2) (``_quarters``): exact, so no score depends on a
scale, and every table ranks through the window. A table keeps each row's
exponent and scaled norm from construction (``_shifts`` and
``_quarter_norms``, 12 bytes a row); queries are scaled per call
(``_scaled_queries``). ``_below_one`` measures vectors near the float64
limits: row norms, queries with an entry outside [2^-255, 2^254) in
magnitude, and projections that overflow.

Every ranking function scores a query's excluded row -inf before it counts
or cuts; ``_product_scores`` scores the zero rows -inf too, and
``_window_ranks`` takes them, which score ±0.0, back out of its counts.
``gold_targets`` holds what no query changes, so that pairs ranked again and
again bind it once. A matrix product yields at most BLOCK_ENTRIES scores
(256 KiB of float32) at once, and the row norms and unit columns are computed
from that many float64 entries at a time, so that no temporary array of the
table's size is held.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from .cache import entry_path, lookup, store
from .errors import InputError, atomic_open, file_sha256, utf8_lines

log = logging.getLogger(__name__)

TEXT_PRECISION = 9  # significant digits written by save_embeddings_text
# scores one ranking matrix product yields, 256 KiB of float32; and the float64
# entries (512 KiB) the row norms and unit columns are computed from at a time
BLOCK_ENTRIES = 1 << 16
MIN_WHOLE_ROWS = 4  # gold_ranks tiles the vocabulary when fewer whole score rows fit
GEMM_ROWS = 64  # queries per matrix product when gold_ranks tiles the vocabulary
PARSE_TOKENS = 1 << 15  # components _parse_text converts at once: max(1, PARSE_TOKENS // dim) rows
# below this a row's sum of squares underflows to a subnormal or to 0
NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
FORMATS = ("text", "binary")
CACHE_MAGIC = b"HPTAB1"
CACHE_VERSION = 3  # in each entry's name and header: entries of other rules are not read


def _below_one(A: np.ndarray, axis: int | tuple[int, ...] = -1) -> tuple[np.ndarray, np.ndarray]:
    """``A`` times 2^-e, where e brings the largest |entry| of each vector along
    ``axis`` into [0.5, 1), and e (with ``axis`` kept). A zero vector keeps e = 0.

    The package's rescaling rule for measuring vectors near the float64 limits:
    a power of two changes no cosine, as the product is exact unless an entry
    far below the largest falls into the subnormals (the caller decides, through
    ``np.errstate``, whether that underflow is reported).
    """
    _, exponent = np.frexp(np.abs(A).max(axis=axis, keepdims=True))
    return np.ldexp(A, -exponent), exponent


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """L2 norm of each row, without overflow or underflow: a row whose plain norm
    overflowed or fell below NORM_FLOOR is measured again through ``_below_one``,
    the others keep ``np.linalg.norm``'s bits. A norm above the float64 maximum
    is inf, which ``EmbeddingTable`` rejects. Rows are measured BLOCK_ENTRIES
    entries at a time: each row's norm is its own reduction, and the squares of
    the whole table are never held at once."""
    norms = np.empty(len(vectors))
    step = max(1, BLOCK_ENTRIES // vectors.shape[1])
    with np.errstate(over="ignore", under="ignore"):
        for first in range(0, len(vectors), step):
            norms[first:first + step] = np.linalg.norm(vectors[first:first + step], axis=1)
        redo = np.flatnonzero((norms < NORM_FLOOR) | (norms == np.inf))
        scaled, exponent = _below_one(vectors[redo])
        norms[redo] = np.ldexp(np.linalg.norm(scaled, axis=1), exponent[:, 0])
    return norms


def _quarters(vectors: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponent of the power of two that brings each nonzero norm ``norms`` of
    ``vectors`` into [1/4, 1/2), and the norm times it; a zero norm gives 0.

    A subnormal norm holds too few bits for a cosine: its vector is measured
    again once scaled, and its exponent combines both powers of two. That is
    exact: the first, at least 2^1021, brings every entry, 2^-1074 too, into the
    normals without losing a bit; the held norm is off by at most 2^-1075, so
    the measured one lies in about [1/8, 3/4), the second is 2^-1, 1 or 2, and
    every entry stays normal. Two such norms multiply to at least 1/16.
    """
    fraction, exponent = np.frexp(norms)
    shift, norms = -1 - exponent, fraction / 2
    if exponent.min(initial=0) < -1021:  # a norm below 2^-1022
        low = np.flatnonzero(exponent < -1021)
        scaled = np.ldexp(vectors[low], shift[low, None])
        again, norms[low] = _quarters(scaled, np.linalg.norm(scaled, axis=1))
        shift[low] += again
    return shift, norms


def _quartered(queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query and its norm times the power of two ``_quarters`` gives: exact,
    as ``_below_one``'s scaling is, so an ordinary cosine keeps its bits. A zero
    query stays zero, with norm 0. Each norm is measured by numpy's dot product of
    the query with itself. Tables keep each row's exponent and norm
    (``EmbeddingTable._shifts``), so only queries come here.
    """
    norms = np.sqrt((queries[:, None, :] @ queries[:, :, None]).reshape(len(queries)))
    shift, norms = _quarters(queries, norms)
    return np.ldexp(queries, shift[:, None]), norms


def _scaled_queries(queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query ``_quartered``, and its norm; the caller's array is not modified.

    A query whose sum of squares could overflow or fall into the subnormals is
    first brought by ``_below_one`` to a largest |entry| in [0.5, 1). When every
    nonzero |entry| of every query lies in [2^-255, 2^254) (``np.frexp``
    exponents in [-254, 254]; a zero's is 0), that step is skipped, as it
    changes no bit. With it or without, each nonzero square is then at least
    2^-1022 (the entries of a query lie within 2^509 of each other) and a sum of
    them far below the float64 maximum, so every product and sum of one norm is
    an exact scaled copy of the other's, the square root halves the scale, and
    ``_quartered`` lands on the same bits. Both routes measure a contiguous array,
    so numpy takes the same dot product kernel.
    """
    _, exponent = np.frexp(queries)
    if np.abs(exponent).max(initial=0) <= 254:
        return _quartered(np.ascontiguousarray(queries))
    with np.errstate(under="ignore"):
        return _quartered(_below_one(queries)[0])


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
    # row (``_quarters``): how every ranking product sees the row
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
        self._shifts, self._quarter_norms = _quarters(self.vectors, self._row_norms)
        self._dead = np.flatnonzero(self._row_norms == 0.0)
        if self.normalized and np.abs(self._row_norms - 1.0).max() > 1e-6:
            raise InputError("normalized table has rows with L2 norm far from 1")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @functools.cached_property
    def _unit_columns(self) -> np.ndarray:
        """(dim, len) float32 array whose column j is row j, scaled by 2^_shifts[j], over
        its quartered norm, rounded once to float32, zero for a zero row: the factor of
        every ranking matrix product, built by the first that needs it and kept.

        Built BLOCK_ENTRIES float64 entries at a time, so the table is never copied
        whole in float64; an entry that underflows to a float32 subnormal or to zero
        is a subnormal term of ``tie_window``. OpenBLAS multiplies a few queries by a
        contiguous (d, V) array about twice as fast as by a transposed view.
        """
        columns = np.empty((self.dim, len(self)), dtype=np.float32)
        step = max(1, BLOCK_ENTRIES // self.dim)
        for first in range(0, len(self), step):
            rows = slice(first, first + step)
            units = np.ldexp(self.vectors[rows], self._shifts[rows, None])
            norms = self._quarter_norms[rows, None]
            np.divide(units, norms, out=units, where=norms > 0.0)  # a zero row stays zero
            with np.errstate(under="ignore"):
                columns[:, rows] = units.T
        return columns

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


def _per_row_cosines(table: EmbeddingTable, rows: np.ndarray, queries: np.ndarray,
                     qnorms: np.ndarray) -> np.ndarray:
    """The (len(queries), len(rows)) exact cosines fl(fl(q_i·v_j) / fl(rn_j·qn_i)) of
    ``queries``, scaled by ``_scaled_queries`` with norms ``qnorms``, against the
    table rows ``rows``, each scaled by the power of two the table keeps for it
    (``_shifts``, norm ``_quarter_norms``); NaN for a zero row or query, which the
    caller leaves out.

    ``np.einsum`` forms each dot product in numpy's own loop over one row and
    one query, whose order of operations depends only on the dimension, so a
    score has the same bits whatever other rows or queries are in the call and
    whatever the BLAS library or its thread count.
    """
    vectors = np.ldexp(table.vectors[rows], table._shifts[rows, None])
    out = np.empty((len(queries), len(vectors)))
    for q, row in zip(queries, out):
        np.einsum("ij,j->i", vectors, q, out=row)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, np.multiply(table._quarter_norms[rows], qnorms[:, None]), out=out)
    return out


@functools.cache  # one value per dimension, read by every ranking call
def tie_window(dim: int) -> float:
    """How far apart two cosines must be for the float32 ranking matrix product (of
    ``gold_ranks`` and ``top_cosines``) and the exact float64 per-row product of
    ``_per_row_cosines`` to order them alike, at embedding dimension ``dim``.

    Take u = 2^-24 and u' = 2^-53, the float32 and float64 unit roundoffs, and
    γ_n = n·u / (1 - n·u), γ'_n likewise with u'. Let q be a nonzero query and v a
    nonzero row, each scaled by the power of two of ``_quarters``, with norms qn and
    rn in [1/4, 1/2), and ρ = ‖q‖·‖v‖ / (qn·rn). Each computed norm is the true
    one times 1 + θ with |θ| ≤ γ'_{d+3}, power-of-two rescaling and a subnormal
    norm's second measure included, so ρ ≤ 1 + γ'_{2d+6}. A dot product of d
    terms, summed in any order, with or without fused multiply-adds and however
    threads split it, is within γ_d·Σ|a_k b_k| of the exact one in float32, γ'_d
    in float64, plus half the least subnormal for each product that underflows,
    2^-150 in float32 (Higham, Accuracy and Stability of Numerical Algorithms,
    §2.1 and §3.1); Σ|a_k b_k| ≤ ‖a‖·‖b‖.

    - The per-row product scores fl(fl(q·v) / fl(qn·rn)), and ``gold_ranks``
      estimates a gold row's score as the float64 product of fl(q/qn) and
      fl(v/rn). Both are within γ'_{d+2}·ρ of q·v / (qn·rn), plus subnormal terms
      below d·2^-1069: qn·rn ≥ 1/16, and every factor is at most about 1.
    - The matrix product is taken in float32, of the same two factors each
      rounded once more to float32: times (1 + u')(1 + u), or off by at most
      2^-150 where a factor lands in the float32 subnormals or at zero. As
      (1 + γ_d)(1 + u)^2 ≤ 1 + γ_{d+2}, it is within ((1 + γ_{d+2})(1 + u')^2 - 1)·ρ
      of q·v / (qn·rn), plus 3d subnormal terms, below d·2^-148 in all.

    So any two of these scores of one pair, the float64 ones included, differ by
    at most β = ((1 + γ_{d+2})(1 + u')^2 - 1 + γ'_{d+2})·ρ + d·2^-147, and a
    difference of two scores moves by at most 2β from one product to the other.
    The window adds 2u' for rounding its ends in float64, c ± window with
    |c ± window| < 2, and u' for evaluating this formula. Each end is then
    rounded outward to float32 (``_float32_end``), which only widens the window,
    so that float32 scores meet float32 ends whatever numpy's promotion rules.
    ``gold_ranks`` centres the window on the gold row's float64 estimate: a row
    whose product score lies outside it is at least window - 2β from the gold
    row exactly, and the gold row's own product score, at most β from the
    estimate, lies inside. A best score over several
    queries moves by at most β too, so a row of the exact top l scores at least
    the exact l-th best, which is at least the product's l-th best less β, and
    the row's own product score is at most β below its exact one:
    ``top_cosines`` keeps every row within the window of the product's l-th
    best. The window is about 2(d + 2)·u: 1.4e-6 at d = 10, 1.2e-5 at d = 100.
    """
    u, u64 = 2.0 ** -24, 2.0 ** -53

    def gamma(k: int, unit: float) -> float:
        return k * unit / (1 - k * unit)

    g = gamma(dim + 2, u)
    # (1 + g)(1 + u64)^2 - 1 without the cancellation
    product = g + (1 + g) * (2 + u64) * u64
    beta = (product + gamma(dim + 2, u64)) * (1 + gamma(2 * dim + 6, u64)) + dim * 2.0 ** -147
    return 2 * beta + 3 * u64


def _float32_end(bound, toward: float) -> np.ndarray | np.float32:
    """The float64 window ends ``bound`` rounded to float32 toward ``toward``: +inf
    for upper ends, -inf for lower ones. Comparing a float32 score with it, in
    float32, never narrows the window, and relies on no promotion rule, which
    differs between numpy versions."""
    nearest = np.float32(bound)  # an array for an array, else a scalar
    widened = np.float64(nearest)
    inward = widened < bound if toward > 0 else widened > bound
    if np.ndim(inward):
        return np.where(inward, np.nextafter(nearest, np.float32(toward)), nearest)
    # one end, that of a predict: a scalar choice costs a third of np.where's
    return np.nextafter(nearest, np.float32(toward)) if inward else nearest


class GoldTargets(NamedTuple):
    """What ranking one gold row per query needs that no query changes, so that
    pairs ranked again and again (validation during training) bind it once."""

    gold: np.ndarray  # the row to rank, per query
    exclude: np.ndarray  # the row left out, per query; -1 for none or a zero row
    units: np.ndarray  # each gold row over its norm, NaN for a zero row
    rankable: np.ndarray  # the gold row is nonzero and not the one left out


def gold_targets(table: EmbeddingTable, gold: np.ndarray, exclude: np.ndarray) -> GoldTargets:
    """``GoldTargets`` of the table rows ``gold``, each ranked without row ``exclude[i]``.

    A zero row scores -inf whether it is left out or not, so an excluded zero
    row is recorded as -1, none.
    """
    gold, exclude = np.asarray(gold, dtype=np.intp), np.asarray(exclude, dtype=np.intp)
    norms = table._row_norms
    vectors = np.ldexp(table.vectors[gold], table._shifts[gold, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        units = vectors / table._quarter_norms[gold, None]
    rankable = (norms[gold] > 0.0) & (gold != exclude)
    exclude = np.where((exclude >= 0) & (norms[exclude] > 0.0), exclude, -1)
    return GoldTargets(gold, exclude, units, rankable)


def gold_ranks(table: EmbeddingTable, queries: np.ndarray,
               targets: GoldTargets) -> tuple[np.ndarray, int]:
    """1-based rank of row ``targets.gold[i]`` among query i's exact cosines
    (``_per_row_cosines``), and how many queries had rows scored exactly.

    Ties go to the lower vocabulary index, and zero rows and row
    ``targets.exclude[i]`` take no part; the rank is 0 where the gold row or
    the query is zero, or the gold row is the one left out. Blocks of unit
    queries are scored with one float32 matrix product against tiles of the
    table's unit columns (``_window_ranks``). A row whose product score lies
    above the ``tie_window`` of the gold row's float64 estimate beats it
    exactly, and one below loses; the rows inside the window, read off the same
    product, are scored exactly against the gold row. Every rank equals the
    exact one.
    """
    queries, qnorms = _scaled_queries(np.asarray(queries, dtype=np.float64))
    ranks, near = _window_ranks(table, queries, qnorms, targets)
    for i, rows in near.items():
        gold = targets.gold[i]
        exact = _per_row_cosines(table, np.append(rows, gold), queries[i, None],
                                 qnorms[i, None])[0]
        s_gold, exact = exact[-1], exact[:-1]
        ranks[i] += (np.count_nonzero(exact > s_gold)
                     + np.count_nonzero(exact[rows < gold] == s_gold))  # ties: the lower index
    return ranks, len(near)


def _rank_tiles(n: int, vocab: int) -> tuple[int, int]:
    """(queries, columns) of each matrix product of ``_window_ranks``.

    BLOCK_ENTRIES // vocab queries against the whole vocabulary when at least
    MIN_WHOLE_ROWS fit, else GEMM_ROWS queries against BLOCK_ENTRIES //
    GEMM_ROWS columns at a time.
    """
    whole = BLOCK_ENTRIES // vocab
    if whole >= MIN_WHOLE_ROWS:
        return max(1, min(n, whole)), vocab
    return max(1, min(n, GEMM_ROWS)), max(1, BLOCK_ENTRIES // GEMM_ROWS)


def _true_counts(mask: np.ndarray) -> np.ndarray:
    """How many entries of each row of the C-contiguous bool array ``mask`` are
    True; each row spans a whole number of 8 bytes. Each 8 bytes are read as one
    uint64 word, and a word times 0x0101010101010101 holds the sum of its bytes,
    each 0 or 1, in its top byte: about a third of the time of ``mask.sum(axis=1)``."""
    words = mask.view(np.uint64) * np.uint64(0x0101010101010101)
    return (words >> np.uint64(56)).sum(axis=1, dtype=np.intp)


def _window_ranks(table: EmbeddingTable, queries: np.ndarray, qnorms: np.ndarray,
                  targets: GoldTargets) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Each query's rank counted from the matrix-product cosines, 1 + the rows
    above the window of its gold row (0 where the gold row cannot be ranked),
    and, for each query with another row inside that window, those rows.

    Each query's excluded row scores -inf in its block of scores, as in
    ``_product_scores``. A zero row's unit column is zero, so it scores
    exactly ±0.0 against every live query, and the zero rows are taken back
    out of the counts from that. The gold row itself lies inside the window
    wherever it is scored (see ``tie_window``); each block's other rows inside
    are found from its counts, and read off that block's scores.
    """
    n, vocab = len(queries), len(table)
    rows, width = _rank_tiles(n, vocab)
    live = (qnorms > 0.0) & targets.rankable
    with np.errstate(divide="ignore", invalid="ignore"):  # zero queries and rows: NaN
        units = queries / qnorms[:, None]
        s_gold = np.einsum("ij,ij->i", units, targets.units)
    with np.errstate(under="ignore"):
        units = units.astype(np.float32)
    window = tie_window(table.dim)
    above = _float32_end(np.where(live, s_gold + window, np.inf), np.inf)
    below = _float32_end(np.where(live, s_gold - window, np.inf), -np.inf)
    ahead = np.zeros(n, dtype=np.intp)  # rows above the window
    found: dict[int, list[np.ndarray]] = {}  # rows inside, of queries with others there
    whole = width == vocab
    # float32 scores, and a spare entry no block reaches
    score_buf = np.empty(rows * min(width, vocab) + 1, dtype=np.float32)
    # narrow tiles pad each mask row with zeros to a whole number of 8 bytes
    span = vocab if whole else -(-min(width, vocab) // 8) * 8
    masks = np.zeros((rows, span), dtype=bool)
    for first in range(0, vocab, width):
        last = min(first + width, vocab)
        # narrow tiles are copied: each block of queries packs the tile again, and
        # OpenBLAS packs columns of a contiguous tile faster than ones V apart
        tile = np.ascontiguousarray(table._unit_columns[:, first:last])
        column = targets.exclude - first
        inside = (column >= 0) & (column < last - first)
        # each query's excluded row in its block's flattened scores, else -1: the spare entry
        flat = np.where(inside, np.arange(n) % rows * (last - first) + column, -1)
        gold_here = live & (targets.gold >= first) & (targets.gold < last)
        masks[:, last - first:] = False  # a last tile narrower than the others
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            shape = (stop - start, last - first)
            S = score_buf[:shape[0] * shape[1]].reshape(shape)
            padded = masks[:shape[0]]
            M = padded[:, :shape[1]]
            np.matmul(units[start:stop], tile, out=S)
            score_buf[flat[start:stop]] = -np.inf
            counts = []  # of the rows above the window, then of those at or above its low end
            for bound, op in ((above, np.greater), (below, np.greater_equal)):
                op(S, bound[start:stop, None], out=M)
                # one 1-D count per whole row is fastest; narrow tiles add up
                # their rows eight bytes at a time
                counts.append(np.array([np.count_nonzero(r) for r in M]) if whole
                              else _true_counts(padded))
            ahead[start:stop] += counts[0]
            # M holds the rows at or above the low end: the window, and the rows above it
            others = counts[1] - counts[0] - gold_here[start:stop]
            for q in np.flatnonzero(others > 0).tolist():
                i = start + q
                found.setdefault(i, []).append(
                    first + np.flatnonzero(M[q] & (S[q] <= above[i])))
    ahead -= len(table._dead) * (0.0 > above)
    ranks = np.where(live, 1 + ahead, 0)
    # a rank is proven when only the gold row lies inside the window, zero rows
    # aside; any other query's rows inside are left to gold_ranks
    near = {}
    for i, parts in found.items():
        rows_i = np.concatenate(parts)
        rows_i = rows_i[(rows_i != targets.gold[i]) & (table._row_norms[rows_i] > 0.0)]
        if rows_i.size:
            near[i] = rows_i
    return ranks, near


def _product_scores(table: EmbeddingTable, units: np.ndarray, exclude: int) -> np.ndarray:
    """Each row's best float32 matrix-product cosine over the float64 unit queries
    ``units``, rounded once to float32, -inf for a zero row and for row ``exclude``
    (-1 for none): the scan of few queries. The product with the table's unit
    columns is taken BLOCK_ENTRIES scores at a time."""
    columns, vocab = table._unit_columns, len(table)
    with np.errstate(under="ignore"):
        units = units.astype(np.float32)
    width = max(1, BLOCK_ENTRIES // len(units))
    best = np.empty(vocab, dtype=np.float32)
    for first in range(0, vocab, width):
        # the ufunc's own reduce: np.max adds a Python wrapper's cost per call
        np.maximum.reduce(units @ columns[:, first:first + width], axis=0,
                          out=best[first:first + width])
    best[table._dead] = -np.inf
    if exclude >= 0:
        best[exclude] = -np.inf
    return best


def top_cosines(table: EmbeddingTable, queries: np.ndarray, l: int,
                exclude: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The ``l`` rows with the best exact cosine over the queries, each row keeping
    its best score over them, and those scores, by descending score then index;
    row ``exclude`` (None for none), zero rows and zero queries take no part.

    Not every row is scored exactly: each row's best matrix-product cosine
    comes from ``_product_scores``, and only the rows whose best score is
    within ``tie_window`` of the l-th best are scored again by
    ``_per_row_cosines``. Each matrix-product cosine is within β of the exact
    one and the window is at least 2β, so every row of the exact top l, the
    whole tie class at the cut included, is among them. Those rows are in index
    order, so one stable sort by descending exact score gives ties to the lower
    index.
    """
    queries, qnorms = _scaled_queries(np.asarray(queries, dtype=np.float64))
    live = qnorms > 0.0
    if not live.any():
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    queries, qnorms = queries[live], qnorms[live]
    exclude = -1 if exclude is None else exclude
    best = _product_scores(table, queries / qnorms[:, None], exclude)
    vocab = len(table)
    # every row but these scores a finite cosine against the live queries
    m = min(l, vocab - len(table._dead) - bool(exclude >= 0 and table._row_norms[exclude] > 0.0))
    if m == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    cut = np.partition(best, vocab - m)[vocab - m]  # the m-th best
    short = np.flatnonzero(best >= _float32_end(float(cut) - tie_window(table.dim), -np.inf))
    exact = np.maximum.reduce(_per_row_cosines(table, short, queries, qnorms), axis=0)
    # every score is finite, and the indices ascend: ties go to the lower index
    top = np.argsort(-exact, kind="stable")[:l]
    return short[top], exact[top]


def nearest_neighbors(table: EmbeddingTable, query: np.ndarray, l: int,
                      exclude: str | None = None) -> NeighborList:
    """The ``l`` words of best exact cosine with ``query``: ``top_cosines`` of one
    query, leaving out the word ``exclude`` when the table holds it.

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
    rows, scores = top_cosines(table, query[None, :], l,
                               None if exclude is None else table.lookup(exclude))
    return NeighborList(query, [(table.vocab[i], s)
                                for i, s in zip(rows.tolist(), scores.tolist())])


def vocab_hash(table: EmbeddingTable) -> str:
    """SHA-256 over the newline-joined vocabulary; recorded in model files and in
    a bound split's cache key. Computed once per table."""
    return table._vocab_digest[0]
