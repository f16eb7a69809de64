"""Dense word embedding tables and brute-force nearest-neighbor search.

Two on-disk formats are supported: plain text (``word v1 v2 ... vd`` per
line, optional ``count dim`` header, which must then give the number of rows,
duplicates included, and their dimension) and the conventional word2vec binary
layout (ASCII ``count dim\\n`` header, then per word a space-terminated
token followed by d little-endian float32 values). Vectors are held as
float64 internally regardless of the file precision.

Text components parse with Python ``float()``, in blocks of whole rows
(``PARSE_TOKENS`` components at most) rather than one value at a time;
binary payloads are gathered and converted in one call. Either way a bad
file reports the error of its first failing line or word, exactly as a
row-by-row reader would: within a text line an unparsable component
comes before a dimension mismatch, which comes before a non-finite value.

``load_embeddings`` has one flow for every format and cache setting: hash
the file (``file_sha256``); given a ``cache`` directory, look a text file's
parse up there as ``<sha256>-<CACHE_VERSION>.hptab``, so that versions of
the package sharing a directory keep their own entries; else parse the file
as it is read, hash it again, which must give the same digest, and store
the parse. A hit reads the file once, a miss three times, and every table's
``source_sha256`` names the bytes it came from. An entry holds the words in
file order, duplicates included, and the float64 rows bit for bit, so a hit
gives the table a parse gives: duplicates, their warning and ``normalize``
are applied after either. An entry that is missing, short or unsound in any
way is a miss, an unwritable directory only means parsing every time, and a
file that fails to load, or changes while it is read, never gets an entry.
``load_embeddings`` sets the table's ``cache_status`` to "hit" or "miss"
when it looked the file up, else leaves it None. An entry is a container,
as a model file is (see ``errors``): ``CACHE_MAGIC``, a header of version,
sha256, count, dim and the words joined by spaces (which no word holds),
and the row-major float64 rows as its payload. A
binary file is hashed but never cached: its float64 entry would be twice
the file's size, and on a large table (70k rows of 100) a hit saved only
about a seventh of a parse while a miss cost about a third more.

A cache directory holds two kinds of entry under one naming scheme,
``<sha256>-<version><suffix>`` (``_entry_path``): tables here, as
``.hptab``, and bound splits (see ``dataset.read_split_dir``), as
``.hpsplit``. Both are written through ``_store``. After writing an entry
of either kind, entries named by a digest alone, which no version reads,
are deleted, and then the least recently used entries of both kinds while
together they exceed CACHE_MAX_BYTES (``_evict``); a hit updates its
entry's modification time (``_touch``).

Similarity search has one exact scorer, ``_per_row_cosines``, on chosen
rows: each dot product is numpy's own per-row product of one query and one
row, so a score depends on neither the other queries, the other rows, the
BLAS library nor its threads. Ranking runs one matrix product of unit
queries against the table's kept unit columns, then scores exactly only the
rows within ``tie_window`` of a cut: ``top_cosines`` keeps every row within
the window of its l-th best score, and ``gold_ranks`` ranks a gold row per
query from the product, ranking a query again (``_rerank``) from its own
product whenever another row scores within the window of its gold row.
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

``gold_ranks`` counts each tile of scores unmasked, then takes the zero
rows and each query's excluded row back out of the counts (see
``_window_ranks``). ``gold_targets`` holds what no query changes, so that
pairs ranked again and again bind it once. Every ranking function holds at
most BLOCK_ENTRIES scores (512 KiB) at once.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (InputError, atomic_open, file_sha256, read_container, utf8_lines,
                     write_container)

log = logging.getLogger(__name__)

TEXT_PRECISION = 9  # significant digits written by save_embeddings_text
BLOCK_ENTRIES = 1 << 16  # scores a ranking function holds at once: 512 KiB of float64
MIN_WHOLE_ROWS = 4  # gold_ranks tiles the vocabulary when fewer whole score rows fit
GEMM_ROWS = 64  # queries per matrix product when gold_ranks tiles the vocabulary
PARSE_TOKENS = 1 << 15  # components _parse_text converts at once: max(1, PARSE_TOKENS // dim) rows
# below this a row's sum of squares underflows to a subnormal or to 0
NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
FORMATS = ("text", "binary")
CACHE_MAGIC = b"HPTAB1"
CACHE_VERSION = 3  # in each entry's name and header: entries of other rules are not read
CACHE_MAX_BYTES = 1 << 30  # entries a cache directory keeps, of both kinds, see _evict
ENTRY_SUFFIXES = (".hptab", ".hpsplit")  # a parsed table, a bound split


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
    is inf, which ``EmbeddingTable`` rejects."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(vectors, axis=1)
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
        """(dim, len) array whose column j is row j, scaled by 2^_shifts[j], over its
        quartered norm, zero for a zero row: the factor of every ranking matrix
        product, built by the first that needs it and kept. OpenBLAS multiplies a
        few queries by a contiguous (d, V) array about twice as fast as by a
        transposed view."""
        columns = np.empty((self.dim, len(self)))
        np.ldexp(self.vectors, self._shifts[:, None], out=columns.T)
        norms = self._quarter_norms
        np.divide(columns, norms, out=columns, where=norms > 0.0)
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


def _unparsable(path: Path, lineno: int, exc: ValueError) -> InputError:
    return InputError(f"{path}:{lineno}: unparsable vector component ({exc})")


def _parse_block(tokens: list[str], linenos: list[int], dim: int, path: Path) -> np.ndarray:
    """The ``(len(linenos), dim)`` rows whose components are ``tokens``.

    Row i comes from line ``linenos[i]``. If any row fails, the first
    failing row is reported, with its first failure in the order an
    unparsable component, then a non-finite one.
    """
    try:
        block = np.fromiter(map(float, tokens), np.float64, count=len(tokens))
    except ValueError as exc:
        if len(linenos) == 1:
            raise _unparsable(path, linenos[0], exc) from None
        for row, lineno in enumerate(linenos):  # an earlier row may fail first
            _parse_block(tokens[row * dim:(row + 1) * dim], [lineno], dim, path)
        raise  # not reached: the row holding the bad component fails above
    block = block.reshape(len(linenos), dim)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise InputError(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite vector component")
    return block


def _parse_text(path: Path) -> tuple[list[str], np.ndarray]:
    """Words and rows of the text file ``path``, parsed as it is read."""
    words: list[str] = []
    blocks: list[np.ndarray] = []
    tokens: list[str] = []  # components of the rows not parsed yet
    linenos: list[int] = []  # their line numbers
    count = dim = None  # of the `count dim` header, else dim is the first row's
    try:
        for lineno, line in utf8_lines(path):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if parts and parts[-1] == "":  # tolerate one trailing space
                parts.pop()
            if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                count, dim = int(parts[0]), int(parts[1])
                if count < 1 or dim < 1:
                    raise InputError(f"{path}: header declares count={count} dim={dim}")
                continue
            if len(parts) < 2:
                raise InputError(f"{path}:{lineno}: expected `word v1 ... vd`")
            if dim is None:
                dim = len(parts) - 1
            elif len(parts) - 1 != dim:
                try:  # an unparsable component is reported before the mismatch
                    [float(t) for t in parts[1:]]
                except ValueError as exc:
                    raise _unparsable(path, lineno, exc) from None
                raise InputError(
                    f"{path}:{lineno}: dimension mismatch (got {len(parts) - 1}, expected {dim})"
                )
            words.append(parts[0])
            tokens += parts[1:]
            linenos.append(lineno)
            if len(tokens) > PARSE_TOKENS - dim:  # max(1, PARSE_TOKENS // dim) rows
                blocks.append(_parse_block(tokens, linenos, dim, path))
                tokens, linenos = [], []
    except InputError:
        # the rows read before the failing line fail first; a block that
        # failed to parse above fails here again with the same error
        if linenos:
            _parse_block(tokens, linenos, dim, path)
        raise
    if linenos:
        blocks.append(_parse_block(tokens, linenos, dim, path))
    if not words:
        raise InputError(f"{path}: no embedding rows found")
    if count is not None and count != len(words):
        raise InputError(f"{path}: header declares {count} rows, the file holds {len(words)}")
    return words, np.concatenate(blocks)


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


def _entry_path(cache: str | Path, key: str, version: int, suffix: str) -> Path:
    """Where a cache entry lives: ``<key>-<version><suffix>`` in ``cache``, the
    one naming scheme of both entry kinds (ENTRY_SUFFIXES)."""
    return Path(cache) / f"{key}-{version}{suffix}"


def _touch(entry: Path) -> None:
    """Mark a hit entry as the most recently used, see _evict."""
    with contextlib.suppress(OSError):
        os.utime(entry)


def _store(entry: Path, magic: bytes, header: dict, *arrays: np.ndarray) -> None:
    """Write a cache entry, a container, then evict; failures are only logged."""
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        write_container(entry, magic, header, *arrays)
    except OSError as exc:
        log.info("cache entry not written: %s", exc)
        return
    _evict(entry)


def _read_entry(entry: Path, digest: str) -> tuple[list[str], np.ndarray] | None:
    """The words and rows a table's cache entry holds, or None if it is missing or unsound."""
    try:
        header, rows = read_container(entry, CACHE_MAGIC)
        words, count, dim = header["words"].split(" "), header["count"], header["dim"]
        sound = (header["version"] == CACHE_VERSION and header["sha256"] == digest
                 and type(count) is int and type(dim) is int and count >= 1 and dim >= 1
                 and len(words) == count and rows.size == count * dim)
    except (OSError, InputError, TypeError, KeyError, AttributeError):
        return None
    return (words, rows.reshape(count, dim)) if sound else None


def _write_entry(entry: Path, digest: str, words: list[str], vectors: np.ndarray) -> None:
    """Store a parse as a table's cache entry; failures are only logged."""
    header = {"version": CACHE_VERSION, "sha256": digest, "count": len(words),
              "dim": vectors.shape[1], "words": " ".join(words)}  # no word holds a space
    _store(entry, CACHE_MAGIC, header, vectors)


def _evict(kept: Path) -> None:
    """Delete the entries beside ``kept`` named by a digest alone, which no version
    reads, then the least recently used ones while the entries, tables and
    splits together, hold more than CACHE_MAX_BYTES; ``kept``, just written, stays.

    1 GiB holds about 17 tables of 70k words at d=100 (57 MB each) or 1,700
    of 7k words at d=10, about 1,350 with a split entry beside each (0.15 MB
    for 6,000 rows), so every fixture of a sweep over seeds stays warm, while
    a directory that has filled up costs no more disk than that. An
    entry's modification time is when it was last written or hit. An entry
    that cannot be listed, read or deleted is passed over: another process
    may be using the same directory.
    """
    aged = []
    with contextlib.suppress(OSError):
        for path in kept.parent.iterdir():
            if path.suffix not in ENTRY_SUFFIXES:
                continue
            with contextlib.suppress(OSError):
                if "-" not in path.stem:
                    path.unlink()
                    continue
                st = path.stat()
                aged.append((st.st_mtime_ns, path.name, st.st_size, path))
    total = sum(size for *_, size, _ in aged)
    for _, _, size, path in sorted(aged):  # the oldest first
        if total <= CACHE_MAX_BYTES:
            break
        if path != kept:
            with contextlib.suppress(OSError):
                path.unlink()
                total -= size


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
        entry = _entry_path(cache, digest, CACHE_VERSION, ".hptab")
        cached = _read_entry(entry, digest)
        if cached is not None:
            _touch(entry)
            table = _finish(*cached, normalize, str(path), digest)
            table.cache_status = "hit"
            return table
    parsed = (_parse_text if format == "text" else _parse_binary)(path)
    if file_sha256(path) != digest:
        raise InputError(f"{path}: changed while it was read")
    table = _finish(*parsed, normalize, str(path), digest)
    if entry is not None:
        _write_entry(entry, digest, *parsed)  # only a file that loads gets an entry
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
    """How far apart two cosines must be for the ranking matrix product (of
    ``gold_ranks`` and ``top_cosines``) and the exact per-row product of
    ``_per_row_cosines`` to order them alike, at embedding dimension ``dim``.

    Take u = 2^-53 and γ_n = n·u / (1 - n·u). Let q be a nonzero query and v a
    nonzero row, each scaled by the power of two of ``_quarters``, with norms qn and
    rn in [1/4, 1/2), and ρ = ‖q‖·‖v‖ / (qn·rn). Each computed norm is the true
    one times 1 + θ with |θ| ≤ γ_{d+3}, power-of-two rescaling and a subnormal
    norm's second measure included, so ρ ≤ 1 + γ_{2d+6}. A dot product of d
    terms, summed in any order, with or without fused multiply-adds and however
    threads split it, is within γ_d·Σ|a_k b_k| of the exact one, plus 2^-1074
    for each product that underflows (Higham, Accuracy and Stability of
    Numerical Algorithms, §2.1 and §3.1); Σ|a_k b_k| ≤ ‖a‖·‖b‖.

    - The matrix product scores fl(q/qn)·fl(v/rn). The two divisions add
      γ_2, so it is within γ_{d+2}·ρ of q·v / (qn·rn), plus subnormal terms,
      those of scaling v included, below d·2^-1071: both factors have norm
      about 1.
    - The per-row product scores fl(fl(q·v) / fl(qn·rn)), within
      γ_{d+2}·ρ of q·v / (qn·rn) as well, plus subnormal terms below
      d·2^-1069, as qn·rn ≥ 1/16: far below d·2^-103.

    So any two of these scores of one pair, the gold score ``gold_ranks``
    estimates included, differ by at most β = 2γ_{d+2}(1 + γ_{2d+6}) +
    d·2^-103 + d·2^-1071, and a difference of two scores moves by at most
    2β from one product to the other. The window adds 2u for rounding its
    ends, c ± window with |c ± window| < 2, and u for the subnormal terms and
    for evaluating this formula. ``_rerank`` centres the window on the gold
    row's exact score instead, which only widens the margin: a row whose
    product score lies outside it is at least window - β from the gold row
    exactly. A best score over several queries moves by at most β too, so a
    row of the exact top l scores at least the exact l-th best, which is at
    least the product's l-th best less β, and the row's own product score is
    at most β below its exact one: ``top_cosines`` keeps every row within the
    window of the product's l-th best.
    """
    u = float(np.finfo(np.float64).eps) / 2

    def gamma(k: int) -> float:
        return k * u / (1 - k * u)

    return 4 * gamma(dim + 2) * (1 + gamma(2 * dim + 6)) + dim * 2.0 ** -102 + 3 * u


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
    (``_per_row_cosines``), and how many queries were ranked again.

    Ties go to the lower vocabulary index, and zero rows and row
    ``targets.exclude[i]`` take no part; the rank is 0 where the gold row or
    the query is zero, or the gold row is the one left out. Blocks of unit
    queries are scored with one matrix product against tiles of the table's
    unit columns (see ``_rank_tiles``). Those cosines can be off from the exact
    ones, so a rank is counted from them only when no other row scores within
    ``tie_window`` of the gold row; any other query is ranked again by
    ``_rerank``. Every rank equals the exact one.
    """
    queries, qnorms = _scaled_queries(np.asarray(queries, dtype=np.float64))
    ranks = np.zeros(len(queries), dtype=np.intp)
    redo = _window_ranks(table, queries, qnorms, targets, ranks)
    for i in redo.tolist():
        ranks[i] = _rerank(table, queries[i], qnorms[i], targets.gold[i], targets.exclude[i])
    return ranks, len(redo)


def _rerank(table: EmbeddingTable, query: np.ndarray, qnorm: float, gold: int,
            exclude: int) -> int:
    """The exact rank of row ``gold`` for one scaled ``query`` of norm ``qnorm``,
    row ``exclude`` (-1 for none) and the zero rows left out.

    The gold row is scored exactly, and the unit query is multiplied by the
    table's unit columns, half of BLOCK_ENTRIES at a time, so that a tile and
    its exact scores fit in BLOCK_ENTRIES. A row whose product score lies more
    than ``tie_window`` above the gold row's exact score beats it exactly, and
    one more than the window below loses; the rows in between are scored
    exactly. Both sides are read off this one product, not mixed with
    ``_window_ranks``' counts: a product of another shape could round a row
    across an end of the window.
    """
    q, qn = query[None, :], np.array([qnorm])
    s_gold = _per_row_cosines(table, np.array([gold]), q, qn)[0, 0]
    window = tie_window(table.dim)
    above, below = s_gold + window, s_gold - window
    unit = query / qnorm
    # the gold row lies within the window and only ties itself, so it counts for
    # nothing; an exclude of -1 lies in no tile
    skip = np.append(table._dead, exclude)
    width = max(1, BLOCK_ENTRIES // 2)
    rank = 1
    for first in range(0, len(table), width):
        S = unit @ table._unit_columns[:, first:first + width]
        S[skip[(skip >= first) & (skip < first + len(S))] - first] = -np.inf
        near = first + np.flatnonzero((S >= below) & (S <= above))
        exact = _per_row_cosines(table, near, q, qn)[0]
        rank += (np.count_nonzero(S > above) + np.count_nonzero(exact > s_gold)
                 + np.count_nonzero(exact[near < gold] == s_gold))  # ties: the lower index
    return rank


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
                  targets: GoldTargets, ranks: np.ndarray) -> np.ndarray:
    """Fill ``ranks`` where the matrix-product cosines prove them; the indices of
    the other queries whose gold row can be ranked.

    Each tile's scores are counted as the product leaves them, unmasked. A
    zero row's unit column is zero, so it scores exactly ±0.0 against every
    live query; the zero rows are taken back out of the counts from that,
    and each query's excluded row from its own score, read off its tile.
    """
    n, vocab = len(queries), len(table)
    rows, width = _rank_tiles(n, vocab)
    live = (qnorms > 0.0) & targets.rankable
    with np.errstate(divide="ignore", invalid="ignore"):  # zero queries and rows: NaN
        units = queries / qnorms[:, None]
        s_gold = np.einsum("ij,ij->i", units, targets.units)
    window = tie_window(table.dim)
    above = np.where(live, s_gold + window, np.inf)
    below = np.where(live, s_gold - window, np.inf)
    ahead = np.zeros(n, dtype=np.intp)  # rows above the window
    near = np.zeros(n, dtype=np.intp)  # rows at or above its low end, the gold row included
    left_out = np.full(n, -np.inf)  # the product's score of each query's excluded row
    whole = width == vocab
    score_buf = np.empty(rows * min(width, vocab))
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
        # where each query's excluded row lies in its block's flattened scores
        flat = np.where(inside, np.arange(n) % rows * (last - first) + column, 0)
        masks[:, last - first:] = False  # a last tile narrower than the others
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            shape = (stop - start, last - first)
            S = score_buf[:shape[0] * shape[1]].reshape(shape)
            padded = masks[:shape[0]]
            M = padded[:, :shape[1]]
            np.matmul(units[start:stop], tile, out=S)
            for bound, op, count in ((above, np.greater, ahead),
                                     (below, np.greater_equal, near)):
                op(S, bound[start:stop, None], out=M)
                # one 1-D count per whole row is fastest; narrow tiles add up
                # their rows eight bytes at a time
                count[start:stop] += ([np.count_nonzero(r) for r in M] if whole
                                      else _true_counts(padded))
            np.copyto(left_out[start:stop], S.reshape(-1).take(flat[start:stop]),
                      where=inside[start:stop])
    dead = len(table._dead)
    ahead -= dead * (0.0 > above) + (left_out > above)
    near -= dead * (0.0 >= below) + (left_out >= below)
    # a row above `above` is ahead of the gold row in the per-query product too,
    # and one below `below` behind it (see tie_window); a rank is proven when
    # only the gold row lies in between
    proven = live & (near == ahead + 1)
    ranks[proven] = 1 + ahead[proven]
    return np.flatnonzero(live & ~proven)


def top_cosines(table: EmbeddingTable, queries: np.ndarray, l: int,
                exclude: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The ``l`` rows with the best exact cosine over the queries, each row keeping
    its best score over them, and those scores, by descending score then index;
    row ``exclude`` (None for none), zero rows and zero queries take no part.

    Not every row is scored exactly: unit queries are multiplied by the table's
    unit columns, ``BLOCK_ENTRIES`` scores at a time, and only the rows whose
    best score is within ``tie_window`` of the l-th best are scored again by
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
    units = queries / qnorms[:, None]
    columns, vocab = table._unit_columns, len(table)
    width = max(1, BLOCK_ENTRIES // len(units))
    best = np.empty(vocab)
    for first in range(0, vocab, width):
        # the ufunc's own reduce: np.max adds a Python wrapper's cost per call
        np.maximum.reduce(units @ columns[:, first:first + width], axis=0,
                          out=best[first:first + width])
    best[table._dead] = -np.inf
    # every row but these scores a finite cosine against the live queries
    usable = vocab - len(table._dead)
    if exclude is not None and table._row_norms[exclude] > 0.0:
        best[exclude] = -np.inf
        usable -= 1
    m = min(l, usable)
    if m == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    cut = np.partition(best, vocab - m)[vocab - m]  # the m-th best
    short = np.flatnonzero(best >= cut - tie_window(table.dim))
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
