"""Dense word embedding tables and brute-force nearest-neighbor search.

Two on-disk formats are supported: plain text (``word v1 v2 ... vd`` per
line, optional ``count dim`` header) and the conventional word2vec binary
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
written.

Every similarity search, from ``nearest_neighbors`` here to ranking in
the evaluation module, scores through ``cosine_blocks``.
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
BLOCK_ENTRIES = 1 << 15  # scores cosine_blocks holds at once: 256 KiB of float64
PARSE_TOKENS = 1 << 15  # components _parse_text converts at once: max(1, PARSE_TOKENS // dim) rows
# below this a row's sum of squares underflows to a subnormal or to 0
NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
# a query norm times a row norm at most this keeps their dot product finite, rounding included
PRODUCT_CEILING = float(np.finfo(np.float64).max) / 2
# a query norm times a row norm at least this keeps their dot product out of the subnormals
PRODUCT_FLOOR = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
FORMATS = ("text", "binary")
CACHE_MAGIC = b"HPTAB1"
CACHE_VERSION = 2


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
    _index: dict[str, int] = field(init=False, repr=False)
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
    if normalize:
        vectors = _normalize_rows(vectors, path)
    return EmbeddingTable(words, vectors, normalized=normalize, source_sha256=digest)


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
    dim = block_rows = 0
    try:
        for lineno, line in utf8_lines(path, data):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if parts and parts[-1] == "":  # tolerate one trailing space
                parts.pop()
            if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                continue  # `count dim` header
            if len(parts) < 2:
                raise InputError(f"{path}:{lineno}: expected `word v1 ... vd`")
            if not dim:
                dim = len(parts) - 1
                block_rows = max(1, PARSE_TOKENS // dim)
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
            if len(linenos) == block_rows:
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
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # already gone after the rename


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
        S[:, dead] = -np.inf
        S[qnorms[start:stop] == 0.0] = -np.inf
        if exclude is not None:
            ex = exclude[start:stop]
            hit = np.flatnonzero(ex >= 0)
            S[hit, ex[hit]] = -np.inf
        yield start, S


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
