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

Given a ``cache`` directory, ``load_embeddings`` reads the file's bytes
once and hashes them, and looks the parse of a text file up there under
the SHA-256; after a miss it parses those same bytes and stores the
result. An entry holds the words in file order, duplicates included, and
the float64 rows bit for bit, so a hit gives the table a parse gives:
duplicates, their warning and ``normalize`` are applied after either.
An entry that is missing, short or unsound in any way is a miss, an
unwritable directory only means parsing every time, and a file that
fails to load never gets an entry. The entry layout follows the model
file's: ``CACHE_MAGIC``, a JSON header (version, sha256, count, dim, and
the words joined by spaces, which no word holds) padded with spaces so
that the rows start 8-byte aligned, a NUL, the row-major little-endian
float64 rows, and a little-endian CRC-32 of everything before it. A
binary file is hashed but never cached: its float64 entry would be twice
the file's size, and on a large table (70k rows of 100) a hit saved only
about a seventh of a parse while a miss cost about a third more. With no
``cache``, the file is parsed as it is read, and nothing is hashed or
written. After writing an entry, the least recently used entries are
deleted while the directory's entries exceed CACHE_MAX_BYTES; a hit
updates its entry's modification time.

Similarity search has one scorer, ``cosine_blocks``: one product per
query, so a score does not depend on the other queries. ``nearest_neighbors``
and the evaluation module's predict print its scores. ``gold_ranks`` ranks
a gold row per query from one matrix product per block of queries, and
ranks a query again through ``cosine_blocks`` whenever the two products
could order its gold row differently (see ``tie_window``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import tempfile
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, utf8_lines

log = logging.getLogger(__name__)

TEXT_PRECISION = 9  # significant digits written by save_embeddings_text
BLOCK_ENTRIES = 1 << 15  # scores cosine_blocks and gold_ranks hold at once: 256 KiB of float64
MIN_WHOLE_ROWS = 4  # gold_ranks tiles the vocabulary when fewer whole score rows fit
GEMM_ROWS = 64  # queries per matrix product when gold_ranks tiles the vocabulary
PARSE_TOKENS = 1 << 15  # components _parse_text converts at once: max(1, PARSE_TOKENS // dim) rows
# below this a row's sum of squares underflows to a subnormal or to 0
NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
# a query norm times a row norm at most this keeps their dot product finite, rounding included
PRODUCT_CEILING = float(np.finfo(np.float64).max) / 2
# a query norm times a row norm at least this keeps their dot product out of the subnormals
PRODUCT_FLOOR = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
FORMATS = ("text", "binary")
CACHE_MAGIC = b"HPTAB1"
CACHE_VERSION = 3  # entries parsed under other rules are misses
CACHE_MAX_BYTES = 1 << 30  # entries a cache directory keeps, see _evict


def _extreme_rows(vectors: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose plain norm overflowed or fell below NORM_FLOOR, and their largest |component|."""
    redo = np.flatnonzero((norms < NORM_FLOOR) | (norms == np.inf))
    scale = np.abs(vectors[redo]).max(axis=1)
    return redo, np.where(scale == 0.0, 1.0, scale)  # a zero row keeps its norm of 0


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """L2 norm of each row, without overflow or underflow: the rows ``_extreme_rows``
    finds are divided by their scale first, the others keep ``np.linalg.norm``'s bits.
    A norm above the float64 maximum is inf, which ``EmbeddingTable`` rejects."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(vectors, axis=1)
        redo, scale = _extreme_rows(vectors, norms)
        norms[redo] = scale * np.linalg.norm(vectors[redo] / scale[:, None], axis=1)
    return norms


def _scaled_queries(queries: np.ndarray,
                    table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    """Queries and their norms, safe to multiply with the rows of ``table``.

    A query ``_extreme_rows`` finds is divided by its scale. Then a nonzero query
    is divided by its norm if that norm times the table's largest row norm exceeds
    PRODUCT_CEILING, so that a dot product could overflow, or times its smallest
    nonzero row norm falls below PRODUCT_FLOOR, so that one could underflow. Both
    happen in a copy, so the caller's array is not modified and every other query
    keeps its bits. The underflow guard needs that smallest norm to be at least
    PRODUCT_FLOOR (about 1e-292), or a unit query would not help: a table with a
    smaller nonzero row scales no query for underflow, and a tiny query's scores
    against that row can lose precision or be NaN.
    """
    with np.errstate(over="ignore", under="ignore"):
        norms = np.sqrt((queries[:, None, :] @ queries[:, :, None]).reshape(len(queries)))
    plain = norms.tolist()  # for a few queries Python's min and max cost less than numpy's
    high = PRODUCT_CEILING / table._max_norm if table._max_norm > 0.0 else np.inf
    # no underflow guard below PRODUCT_FLOOR, where it cannot help, or when every row is zero
    low = PRODUCT_FLOOR / table._min_norm if table._min_norm >= PRODUCT_FLOOR else 0.0
    if max(NORM_FLOOR, low) <= min(plain, default=1.0) and max(plain, default=1.0) < high:
        return queries, norms
    redo, scale = _extreme_rows(queries, norms)
    queries = queries.copy()
    queries[redo] /= scale[:, None]
    norms[redo] = np.linalg.norm(queries[redo], axis=1)
    risky = np.flatnonzero((norms > high) | ((norms > 0.0) & (norms < low)))
    queries[risky] /= norms[risky, None]
    norms[risky] = 1.0
    return queries, norms


@dataclass(eq=False)
class EmbeddingTable:
    """Vocabulary plus row vectors; immutable after construction.

    Attributes:
        vocab: unique words, row order of ``vectors``.
        vectors: (len(vocab), dim) float64 matrix.
        normalized: rows were scaled to unit L2 norm at load time.
        source_sha256: SHA-256 of the file bytes ``load_embeddings`` read
            the table from through its cache; empty otherwise.
    """

    vocab: list[str]
    vectors: np.ndarray
    normalized: bool = False
    source_sha256: str = field(default="", repr=False)
    # word -> row; a caller that already holds it for ``vocab`` may pass it
    _index: dict[str, int] | None = field(default=None, repr=False)
    _row_norms: np.ndarray = field(init=False, repr=False)
    _max_norm: float = field(init=False, repr=False)
    _min_norm: float = field(init=False, repr=False)  # the smallest nonzero one

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
        self._max_norm = float(self._row_norms.max(initial=0.0))
        self._min_norm = float(self._row_norms.min(initial=np.inf,
                                                   where=self._row_norms > 0.0))
        if self.normalized and np.abs(self._row_norms - 1.0).max() > 1e-6:
            raise InputError("normalized table has rows with L2 norm far from 1")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

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


def _parse_text(path: Path, data: bytes | None) -> tuple[list[str], np.ndarray]:
    """Words and rows of the text file ``path``, parsed from ``data``, its bytes, if given."""
    words: list[str] = []
    blocks: list[np.ndarray] = []
    tokens: list[str] = []  # components of the rows not parsed yet
    linenos: list[int] = []  # their line numbers
    count = dim = None  # of the `count dim` header, else dim is the first row's
    try:
        for lineno, line in utf8_lines(path, data):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if parts and parts[-1] == "":  # tolerate one trailing space
                parts.pop()
            if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                count, dim = int(parts[0]), int(parts[1])
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


def _parse_binary(path: Path, data: bytes | None) -> tuple[list[str], np.ndarray]:
    """Words and rows of the word2vec binary file ``path``, parsed from ``data``, its
    bytes, if given."""
    if data is None:
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


def _read_entry(entry: Path, digest: str) -> tuple[list[str], np.ndarray] | None:
    """The words and rows a cache entry holds, or None if it is missing or unsound."""
    try:
        with open(entry, "rb") as fh:
            # a writable buffer, so that the rows are a view of it rather than a copy
            data = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(data) != len(data):
                return None
    except OSError:
        return None
    end = len(data) - 4  # the CRC-32 follows the rows
    nul = data.find(b"\x00", len(CACHE_MAGIC), end)
    if (nul < 0 or not data.startswith(CACHE_MAGIC)
            or zlib.crc32(memoryview(data)[:end]) != int.from_bytes(data[end:], "little")):
        return None
    try:
        header = json.loads(data[len(CACHE_MAGIC):nul].decode("utf-8"))
        words, count, dim = header["words"].split(" "), header["count"], header["dim"]
        sound = (header["version"] == CACHE_VERSION and header["sha256"] == digest
                 and type(count) is int and type(dim) is int and count >= 1 and dim >= 1
                 and len(words) == count and end - nul - 1 == 8 * count * dim)
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None
    if not sound:
        return None
    rows = np.frombuffer(data, "<f8", count * dim, nul + 1).reshape(count, dim)
    return (words, rows) if np.isfinite(rows).all() else None


def _write_entry(entry: Path, digest: str, words: list[str], vectors: np.ndarray) -> None:
    """Store a parse as a cache entry: a temp file, then a rename; failures are only logged."""
    header = {"version": CACHE_VERSION, "sha256": digest, "count": len(words),
              "dim": vectors.shape[1], "words": " ".join(words)}  # no word holds a space
    blob = json.dumps(header, separators=(",", ":")).encode("ascii")
    blob += b" " * (-(len(CACHE_MAGIC) + len(blob) + 1) % 8)  # the rows start 8-byte aligned
    parts = [CACHE_MAGIC, blob, b"\x00", np.ascontiguousarray(vectors, dtype="<f8").data]
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, prefix=".", suffix=".tmp")
    except OSError as exc:
        log.info("embedding cache not written: %s", exc)
        return
    try:
        crc = 0
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(crc.to_bytes(4, "little"))
        os.replace(tmp, entry)
    except OSError as exc:
        log.info("embedding cache not written: %s", exc)
        return
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # already gone after the rename
    _evict(entry)


def _evict(kept: Path) -> None:
    """Delete the least recently used entries beside ``kept`` while the entries
    hold more than CACHE_MAX_BYTES; ``kept``, just written, stays.

    1 GiB holds about 17 tables of 70k words at d=100 (57 MB each) or 1,700
    of 7k words at d=10, so every fixture of a sweep over seeds stays warm,
    while a directory that has filled up costs no more disk than that. An
    entry's modification time is when it was last written or hit. An entry
    that cannot be listed, read or deleted is passed over: another process
    may be using the same directory.
    """
    aged = []
    with contextlib.suppress(OSError):
        for path in kept.parent.glob("*.hptab"):
            with contextlib.suppress(OSError):
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
            file every time, hashes nothing and writes nothing.

    Duplicate words keep their first occurrence and log a warning. Words
    are matched verbatim (no case folding). Loaded through a cache, the
    table's ``source_sha256`` is the SHA-256 of the bytes it came from.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"embedding file not found: {path}")
    if format not in FORMATS:
        raise InputError(f"unknown embedding format {format!r} (expected text or binary)")
    if cache is None:
        parse = _parse_text if format == "text" else _parse_binary
        return _finish(*parse(path, None), normalize, str(path), "")
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if format == "binary":  # never cached, see the module docstring
        return _finish(*_parse_binary(path, data), normalize, str(path), digest)
    entry = Path(cache) / f"{digest}.hptab"
    if entry.is_file():
        del data  # not held alongside the entry
        cached = _read_entry(entry, digest)
        if cached is not None:
            with contextlib.suppress(OSError):
                os.utime(entry)  # most recently used, see _evict
            return _finish(*cached, normalize, str(path), digest)
        data = path.read_bytes()  # an unsound entry: parse the file as it is now
        digest = hashlib.sha256(data).hexdigest()
        entry = Path(cache) / f"{digest}.hptab"
    parsed = _parse_text(path, data)
    table = _finish(*parsed, normalize, str(path), digest)
    _write_entry(entry, digest, *parsed)  # only a file that loads gets an entry
    return table


def save_embeddings_text(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in the text format with a `count dim` header.

    Components are printed with 9 significant digits; values that fit in
    that precision round-trip bitwise through load_embeddings.
    """
    row = "%s" + f" %.{TEXT_PRECISION}g" * table.dim + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        # one row of Python floats at a time: a whole-table tolist() holds 4x the table
        fh.writelines(row % (word, *values.tolist())
                      for word, values in zip(table.vocab, table.vectors))


def _mask(S: np.ndarray, dead: np.ndarray, qnorms: np.ndarray,
          exclude: np.ndarray | None) -> None:
    """Set to -inf, in scores ``S`` of queries against a run of vocabulary rows, the
    columns ``dead`` (zero rows), every column of a zero query, and per query the
    column ``exclude[i]`` when it is one."""
    S[:, dead] = -np.inf
    S[qnorms == 0.0] = -np.inf
    if exclude is not None:
        hit = np.flatnonzero((exclude >= 0) & (exclude < S.shape[1]))
        S[hit, exclude[hit]] = -np.inf


def cosine_blocks(table: EmbeddingTable, queries: np.ndarray,
                  exclude: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Cosine similarity of every query row with every vocabulary row.

    Yields ``(start, S)`` where ``S[i, j]`` scores query ``start + i``
    against vocabulary row j, for blocks of at most
    ``max(1, BLOCK_ENTRIES // len(table))`` queries. Zero-norm vocabulary
    rows, zero-norm queries and, per query, the row ``exclude[i]`` (when
    it is >= 0) score -inf. ``S`` is overwritten by the next block.

    Each query row is one matrix-vector product with the table, so its
    scores are bitwise the same whatever block it lands in.
    """
    queries, qnorms = _scaled_queries(np.asarray(queries, dtype=np.float64), table)
    n, vocab = queries.shape[0], len(table)
    rows = max(1, BLOCK_ENTRIES // vocab)
    dead = np.flatnonzero(table._row_norms == 0.0)
    scores = np.empty((min(rows, n), 1, vocab))
    denom = np.empty((min(rows, n), vocab))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        S, D = scores[:stop - start], denom[:stop - start]
        np.matmul(queries[start:stop, None, :], table.vectors.T, out=S)
        S = S.reshape(D.shape)
        np.multiply(table._row_norms, qnorms[start:stop, None], out=D)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(S, D, out=S)
        _mask(S, dead, qnorms[start:stop], None if exclude is None else exclude[start:stop])
        yield start, S


def tie_window(dim: int) -> float:
    """How far apart two cosines must be for ``gold_ranks``' matrix product and
    the per-query product of ``cosine_blocks`` to order them alike, at
    embedding dimension ``dim``.

    Take u = 2^-53 and γ_n = n·u / (1 - n·u). Let q be a nonzero query as
    ``_scaled_queries`` leaves it and v a nonzero row, with computed norms qn
    and rn, and ρ = ‖q‖·‖v‖ / (qn·rn). Each computed norm is the true one times
    1 + θ with |θ| ≤ γ_{d+3}, ``_extreme_rows`` rescaling and unit scaling
    included, so ρ ≤ 1 + γ_{2d+6}. A dot product of d terms, summed in any
    order, with or without fused multiply-adds and however threads split it,
    is within γ_d·Σ|a_k b_k| of the exact one, plus 2^-1074 for each product
    that underflows (Higham, Accuracy and Stability of Numerical Algorithms,
    §2.1 and §3.1); Σ|a_k b_k| ≤ ‖a‖·‖b‖.

    - The matrix product scores fl(q/qn)·fl(v/rn). The two divisions add
      γ_2, so it is within γ_{d+2}·ρ of q·v / (qn·rn), plus subnormal terms
      below d·2^-1072: both factors have norm about 1.
    - The per-query product scores fl(fl(q·v) / fl(qn·rn)), within
      γ_{d+2}·ρ of q·v / (qn·rn) as well, plus d·2^-1074 / (qn·rn) from
      underflow. ``_scaled_queries`` keeps qn·rn ≥ PRODUCT_FLOOR = 2^-970 when
      the table's smallest nonzero row norm is at least PRODUCT_FLOOR, so that
      term is below d·2^-103. Below that floor there is no bound, and
      ``gold_ranks`` ranks every query by the per-query product.

    So any two of these scores of one pair, the gold score ``gold_ranks``
    estimates included, differ by at most β = 2γ_{d+2}(1 + γ_{2d+6}) +
    d·2^-103 + d·2^-1071, and a difference of two scores moves by at most
    2β from one product to the other. The window adds 2u for rounding its
    ends, c ± window with |c ± window| < 2, and u for the subnormal terms and
    for evaluating this formula.
    """
    u = float(np.finfo(np.float64).eps) / 2

    def gamma(k: int) -> float:
        return k * u / (1 - k * u)

    return 4 * gamma(dim + 2) * (1 + gamma(2 * dim + 6)) + dim * 2.0 ** -102 + 3 * u


def gold_ranks(table: EmbeddingTable, queries: np.ndarray, gold: np.ndarray,
               exclude: np.ndarray) -> tuple[np.ndarray, int]:
    """1-based rank of row ``gold[i]`` among query i's cosines, and how many
    queries were ranked again by the per-query product.

    The ranks are those the scores of ``cosine_blocks`` give, ties to the
    lower vocabulary index and row ``exclude[i]`` left out; 0 where the
    gold row scores -inf. Blocks of unit queries are scored with one matrix
    product against tiles of unit rows: ``BLOCK_ENTRIES // len(table)``
    queries against the whole vocabulary when at least MIN_WHOLE_ROWS fit,
    else GEMM_ROWS queries against ``BLOCK_ENTRIES // GEMM_ROWS`` rows at a
    time. Those cosines can be off from the per-query ones, so a rank is
    counted from them only when no other row scores within ``tie_window``
    of the gold row; any other query is ranked again from ``cosine_blocks``.
    Every rank equals the per-query one.
    """
    original = np.asarray(queries, dtype=np.float64)
    n = len(original)
    ranks = np.zeros(n, dtype=np.intp)
    if table._min_norm < PRODUCT_FLOOR:  # no bound between the products, see tie_window
        redo = np.arange(n)
    else:
        redo = _window_ranks(table, *_scaled_queries(original, table), gold, exclude, ranks)
    for start, S in cosine_blocks(table, original[redo], exclude[redo]):
        for i, row in zip(redo[start:start + len(S)], S):
            g = gold[i]
            s_gold = row[g]
            if s_gold > -np.inf:  # ties rank the lower vocabulary index first
                ranks[i] = (1 + np.count_nonzero(row[:g] >= s_gold)
                            + np.count_nonzero(row[g + 1:] > s_gold))
    return ranks, len(redo)


def _window_ranks(table: EmbeddingTable, queries: np.ndarray, qnorms: np.ndarray,
                  gold: np.ndarray, exclude: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Fill ``ranks`` where the matrix-product cosines prove them; the indices of
    the other queries whose gold row can be ranked."""
    n, vocab = len(queries), len(table)
    norms = table._row_norms
    whole = BLOCK_ENTRIES // vocab >= MIN_WHOLE_ROWS
    rows = max(1, min(n, BLOCK_ENTRIES // vocab if whole else GEMM_ROWS))
    width = vocab if whole else max(1, BLOCK_ENTRIES // GEMM_ROWS)
    dead = np.flatnonzero(norms == 0.0)
    live = (qnorms > 0.0) & (norms[gold] > 0.0) & (gold != exclude)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero queries and rows: NaN
        units = queries / qnorms[:, None]
        s_gold = np.einsum("ij,ij->i", units, table.vectors[gold] / norms[gold, None])
    window = tie_window(table.dim)
    above = np.where(live, s_gold + window, np.inf)[:, None]
    below = np.where(live, s_gold - window, np.inf)[:, None]
    ahead = np.zeros(n, dtype=np.intp)  # rows above the window
    near = np.zeros(n, dtype=np.intp)  # rows at or above its low end, the gold row included
    # unit rows, transposed: OpenBLAS multiplies a few queries by a contiguous
    # (d, width) tile about twice as fast as by a transposed view of the table
    tile_buf = np.empty(table.dim * min(width, vocab))
    score_buf = np.empty(rows * min(width, vocab))
    mask_buf = np.empty(score_buf.shape, dtype=bool)
    for first in range(0, vocab, width):
        last = min(first + width, vocab)
        tile = tile_buf[:table.dim * (last - first)].reshape(table.dim, last - first)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(table.vectors[first:last].T, norms[first:last], out=tile)
        cut = np.searchsorted(dead, (first, last))
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            shape = (stop - start, last - first)
            S = score_buf[:shape[0] * shape[1]].reshape(shape)
            M = mask_buf[:S.size].reshape(shape)
            np.matmul(units[start:stop], tile, out=S)
            _mask(S, dead[cut[0]:cut[1]] - first, qnorms[start:stop],
                  exclude[start:stop] - first)
            for bound, op, count in ((above, np.greater, ahead),
                                     (below, np.greater_equal, near)):
                op(S, bound[start:stop], out=M)
                # one 1-D count per whole row is fastest; narrow tiles count along axis 1
                count[start:stop] += ([np.count_nonzero(r) for r in M] if whole
                                      else M.sum(axis=1))
    # a row above `above` is ahead of the gold row in the per-query product too,
    # and one below `below` behind it (see tie_window); a rank is proven when
    # only the gold row lies in between
    proven = live & (near == ahead + 1)
    ranks[proven] = 1 + ahead[proven]
    return np.flatnonzero(live & ~proven)


def top_indices(scores: np.ndarray, l: int) -> np.ndarray:
    """Indices of the ``l`` best finite scores, by descending score then index."""
    m = min(l, int(np.count_nonzero(scores > -np.inf)))
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    cutoff = -np.partition(-scores, m - 1)[m - 1]
    tied_or_better = np.flatnonzero(scores >= cutoff)  # the whole tie class at the cut
    order = np.argsort(-scores[tied_or_better], kind="stable")
    return tied_or_better[order[:m]]


def nearest_neighbors(table: EmbeddingTable, query: np.ndarray, l: int,
                      exclude: str | None = None) -> NeighborList:
    """Exhaustive top-``l`` cosine scan of the vocabulary.

    Zero-norm rows are unusable and never returned. If ``l`` exceeds the
    usable vocabulary, all usable words are returned. A zero query vector
    is an error (similarity undefined).
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != table.dim:
        raise InputError(f"query has dimension {query.shape[0]}, table has {table.dim}")
    _, qnorm = _scaled_queries(query[None, :], table)
    if qnorm[0] == 0.0:
        raise InputError("cosine similarity is undefined for a zero query vector")
    idx = table.lookup(exclude) if exclude is not None else None
    ex = np.array([-1 if idx is None else idx])
    _, S = next(cosine_blocks(table, query[None, :], ex))
    scores = S[0]
    entries = [(table.vocab[i], float(scores[i])) for i in top_indices(scores, l)]
    return NeighborList(query=query, entries=entries)


def vocab_hash(table: EmbeddingTable) -> str:
    """SHA-256 over the newline-joined vocabulary; recorded in model files."""
    return hashlib.sha256("\n".join([*table.vocab, ""]).encode("utf-8")).hexdigest()
